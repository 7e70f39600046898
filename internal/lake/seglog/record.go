// Package seglog implements the lake's append-only segment-log inventory
// backend: every mutation (dataset arrival, dataset removal, platform
// snapshot, detection outcome) is one CRC-framed record appended to the
// active segment file, segments rotate at a size target, a manifest names
// the live segments, and background compaction folds dead records (removed
// datasets, superseded platform snapshots and detection outcomes) into
// fresh segments — crash-safely at every step.
//
// The record frame reuses the shape of the internal/nn snapshot header
// (magic, version, length, CRC32 — see nn/snapshot.go), so the same class
// of damage is rejected the same way across the repository:
//
//	offset  size  field
//	0       6     magic "ENLDSG"
//	6       2     format version, big-endian uint16
//	8       8     payload length, big-endian uint64
//	16      4     CRC-32 (IEEE) of the payload, big-endian uint32
//	20      n     gob-encoded record payload
//
// Recovery is lenient exactly once, at the tail of the final segment: a
// record truncated by a torn append, or a corrupted record that is the last
// frame of the log, is dropped and counted. Corruption anywhere else —
// interior records, sealed segments, bad magic, out-of-order sequence
// numbers — fails loudly with segment and byte-offset context, because a
// damaged interior is not a crash artifact and replay must not paper over
// it.
package seglog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"

	"enld/internal/dataset"
)

const (
	recordMagic   = "ENLDSG"
	recordVersion = 1
	headerSize    = len(recordMagic) + 2 + 8 + 4
	// maxRecordBytes bounds the declared payload length so a corrupted or
	// hostile header cannot drive a huge allocation.
	maxRecordBytes = 1 << 30
)

// recordKind tags what a record mutates.
type recordKind uint8

const (
	// kindDataset appends an incremental dataset arrival.
	kindDataset recordKind = 1
	// kindPlatform replaces the platform snapshot.
	kindPlatform recordKind = 2
	// kindRemove tombstones a dataset.
	kindRemove recordKind = 3
	// kindDetection records one detection task's outcome; its payload is a
	// detection, not a record.
	kindDetection recordKind = 4
)

// payload is the gob body of a frame: a *record or a *detection. Both carry
// the log-wide sequence number, which seq exposes for stamping and checking.
type payload interface {
	seq() *uint64
}

// record is the gob payload of one frame. Every record carries a
// log-unique, strictly increasing sequence number; recovery rejects
// regressions (a duplicated or replayed frame) loudly.
type record struct {
	Seq  uint64
	Kind recordKind
	// ID is the dataset ID for kindDataset and kindRemove.
	ID   uint64
	Name string
	// Samples carries the dataset of a kindDataset record.
	Samples dataset.Set
	// Snapshot carries the platform blob of a kindPlatform record.
	Snapshot []byte
}

// detection is the payload of a kindDetection frame: which samples of one
// task were judged noisy and which clean. It is a gob type of its own
// rather than more fields on record because every frame carries its
// payload type's gob description, so widening record would enlarge and
// slow every dataset frame. gob matches fields by name: recovery decodes a
// detection frame as a record — Seq, Kind and the task ID in ID, the slot
// a record keeps its dataset ID in — and skips the lists it does not index.
type detection struct {
	Seq  uint64
	Kind recordKind
	// ID is the task ID, converted to uint64.
	ID    uint64
	Noisy []int
	Clean []int
	Note  string
}

func (r *record) seq() *uint64    { return &r.Seq }
func (d *detection) seq() *uint64 { return &d.Seq }

// encodeFrame renders p as one framed record. The payload is encoded after
// room left for the header, so the frame is built in place.
func encodeFrame(p payload) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, headerSize))
	if err := gob.NewEncoder(buf).Encode(p); err != nil {
		return nil, fmt.Errorf("seglog: encode record seq %d: %w", *p.seq(), err)
	}
	out := buf.Bytes()
	copy(out, recordMagic)
	binary.BigEndian.PutUint16(out[6:], recordVersion)
	binary.BigEndian.PutUint64(out[8:], uint64(len(out)-headerSize))
	binary.BigEndian.PutUint32(out[16:], crc32.ChecksumIEEE(out[headerSize:]))
	return out, nil
}

// recordAt pairs a decoded record with its frame position.
type recordAt struct {
	rec record
	// off is the frame's byte offset in its segment; size its framed
	// length (header + payload).
	off  int64
	size int64
}

// SegmentScan reports what reading one segment found beyond the records
// themselves.
type SegmentScan struct {
	// Records is the count of intact records.
	Records int
	// LiveEnd is the byte offset one past the last intact record — the
	// truncation point a lenient recovery restores the segment to.
	LiveEnd int64
	// TornTail reports that a damaged tail was dropped (lenient scans
	// only).
	TornTail bool
	// DroppedRecords and DroppedBytes account for the dropped tail: the
	// byte count is exact, the record count is the number of frames
	// definitely present in the dropped region (at least 1).
	DroppedRecords int
	DroppedBytes   int64
	// DroppedAt is the byte offset the damage started at.
	DroppedAt int64
}

// CorruptionError is a hard recovery failure: structural damage at a known
// position that leniency must not absorb.
type CorruptionError struct {
	Segment string
	Offset  int64
	Reason  string
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("seglog: segment %s: corrupt record at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// errTornFrame tags a frame whose damage is consistent with a torn append:
// the distinction between "drop leniently" and "fail loudly".
var errTornFrame = errors.New("torn frame")

// checkFrame checks the frame at data[off:] and returns its payload and
// framed size. A structurally torn frame (incomplete header, or payload
// shorter than declared) returns errTornFrame; other damage returns a
// *CorruptionError, with the framed size once the header was intact.
func checkFrame(segment string, data []byte, off int64) ([]byte, int64, error) {
	rem := int64(len(data)) - off
	if rem < int64(headerSize) {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes, need %d for a header", errTornFrame, rem, headerSize)
	}
	hdr := data[off:]
	if string(hdr[:len(recordMagic)]) != recordMagic {
		return nil, 0, &CorruptionError{Segment: segment, Offset: off, Reason: "bad magic"}
	}
	if v := binary.BigEndian.Uint16(hdr[6:]); v != recordVersion {
		return nil, 0, &CorruptionError{Segment: segment, Offset: off,
			Reason: fmt.Sprintf("unsupported record version %d (this build reads version %d)", v, recordVersion)}
	}
	plen := binary.BigEndian.Uint64(hdr[8:])
	if plen > maxRecordBytes {
		return nil, 0, &CorruptionError{Segment: segment, Offset: off,
			Reason: fmt.Sprintf("declared payload size %d exceeds the %d-byte limit", plen, int64(maxRecordBytes))}
	}
	size := int64(headerSize) + int64(plen)
	if rem < size {
		return nil, 0, fmt.Errorf("%w: frame declares %d payload bytes, only %d present", errTornFrame, plen, rem-int64(headerSize))
	}
	payload := data[off+int64(headerSize) : off+size]
	if want, got := binary.BigEndian.Uint32(hdr[16:]), crc32.ChecksumIEEE(payload); got != want {
		return nil, size, &CorruptionError{Segment: segment, Offset: off,
			Reason: fmt.Sprintf("checksum mismatch (header %08x, payload %08x)", want, got)}
	}
	return payload, size, nil
}

// decodeFrame checks the frame at data[off:] and decodes its payload into
// p, failing as checkFrame does.
func decodeFrame(segment string, data []byte, off int64, p payload) (int64, error) {
	body, size, err := checkFrame(segment, data, off)
	if err != nil {
		return size, err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(p); err != nil {
		return size, &CorruptionError{Segment: segment, Offset: off, Reason: fmt.Sprintf("payload decode: %v", err)}
	}
	return size, nil
}

// readFrame decodes the frame at data[off:] as a record, failing as
// checkFrame does.
func readFrame(segment string, data []byte, off int64) (record, int64, error) {
	var rec record
	size, err := decodeFrame(segment, data, off, &rec)
	return rec, size, err
}

// readSegment scans every frame of one segment image. With lenientTail a
// torn frame, or a damaged final one, is dropped and accounted in the scan;
// without it (sealed segments) any damage is a *CorruptionError. The
// returned records carry their frame offsets for dead-byte accounting.
func readSegment(segment string, data []byte, lenientTail bool) ([]recordAt, SegmentScan, error) {
	var recs []recordAt
	var scan SegmentScan
	off := int64(0)
	for off < int64(len(data)) {
		rec, size, err := readFrame(segment, data, off)
		if err != nil {
			torn := errors.Is(err, errTornFrame) || off+size == int64(len(data))
			if torn && lenientTail {
				scan.TornTail = true
				scan.DroppedRecords = 1
				scan.DroppedBytes = int64(len(data)) - off
				scan.DroppedAt = off
				break
			}
			var ce *CorruptionError
			if errors.As(err, &ce) {
				return recs, scan, ce
			}
			// A torn frame in a sealed segment: sealed segments are
			// immutable after rotation, so a short tail there is not a
			// crash artifact.
			return recs, scan, &CorruptionError{Segment: segment, Offset: off, Reason: err.Error()}
		}
		recs = append(recs, recordAt{rec: rec, off: off, size: size})
		off += size
		scan.Records++
		scan.LiveEnd = off
	}
	return recs, scan, nil
}
