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
//	20      n     payload
//
// The payload is one explicit little-endian layout. It opens with a fixed
// 17-byte prefix:
//
//	offset  size  field
//	0       8     sequence number, uint64
//	8       1     record kind
//	9       8     dataset ID (dataset, remove), task ID (detection) or 0
//
// and goes on by kind, where uv is an unsigned varint, v a zigzag varint, a
// string or blob is a uv length and its bytes, and an ID list is a uv count
// and that many v:
//
//	dataset    name string, uv sample count, then per sample:
//	           v ID, v Observed, v True, uv len(X), len(X) × uint64 float64 bits
//	detection  note string, noisy ID list, clean ID list
//	platform   snapshot blob
//	remove     nothing
//
// A payload ends where its last field does; trailing bytes are corruption.
// Version 1 frames (gob payloads) are refused like any other unknown
// version: there is one decoder.
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"enld/internal/dataset"
)

const (
	recordMagic   = "ENLDSG"
	recordVersion = 2
	headerSize    = len(recordMagic) + 2 + 8 + 4
	// prefixSize is the fixed payload prefix: seq, kind, ID.
	prefixSize = 8 + 1 + 8
	// seqOff and idOff locate the prefix fields stamped into an encoded
	// frame under the log mutex.
	seqOff = headerSize
	idOff  = headerSize + 9
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
	// kindDetection records one detection task's outcome.
	kindDetection recordKind = 4
)

// newFrame allocates a frame for a payload of n bytes after the prefix,
// with magic, version, length, kind and id filled in. The caller appends
// exactly n bytes; the sequence number and CRC are stamped by seal.
func newFrame(kind recordKind, id uint64, n int) []byte {
	frame := make([]byte, headerSize+prefixSize, headerSize+prefixSize+n)
	copy(frame, recordMagic)
	binary.BigEndian.PutUint16(frame[6:], recordVersion)
	binary.BigEndian.PutUint64(frame[8:], uint64(prefixSize+n))
	frame[seqOff+8] = byte(kind)
	binary.LittleEndian.PutUint64(frame[idOff:], id)
	return frame
}

// seal stamps seq into an encoded frame and checksums its payload.
func seal(frame []byte, seq uint64) {
	binary.LittleEndian.PutUint64(frame[seqOff:], seq)
	binary.BigEndian.PutUint32(frame[16:], crc32.ChecksumIEEE(frame[headerSize:]))
}

// datasetFrame encodes a dataset arrival. Its ID is stamped at append, when
// the log assigns it.
func datasetFrame(name string, set dataset.Set) []byte {
	n := blobLen(len(name)) + uvarintLen(uint64(len(set)))
	for _, s := range set {
		n += varintLen(s.ID) + varintLen(s.Observed) + varintLen(s.True) + uvarintLen(uint64(len(s.X))) + 8*len(s.X)
	}
	b := newFrame(kindDataset, 0, n)
	b = appendBlob(b, name)
	b = binary.AppendUvarint(b, uint64(len(set)))
	for _, s := range set {
		b = binary.AppendVarint(b, int64(s.ID))
		b = binary.AppendVarint(b, int64(s.Observed))
		b = binary.AppendVarint(b, int64(s.True))
		b = binary.AppendUvarint(b, uint64(len(s.X)))
		for _, x := range s.X {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// detectionFrame encodes one detection task's outcome.
func detectionFrame(taskID int, noisy, clean []int, note string) []byte {
	b := newFrame(kindDetection, uint64(taskID), blobLen(len(note))+listLen(noisy)+listLen(clean))
	b = appendBlob(b, note)
	b = appendList(b, noisy)
	return appendList(b, clean)
}

// platformFrame encodes a platform snapshot.
func platformFrame(snapshot []byte) []byte {
	return appendBlob(newFrame(kindPlatform, 0, blobLen(len(snapshot))), snapshot)
}

// removeFrame encodes the tombstone of dataset id.
func removeFrame(id uint64) []byte {
	return newFrame(kindRemove, id, 0)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintLen(v int) int {
	x := int64(v)
	return uvarintLen(uint64(x<<1) ^ uint64(x>>63))
}

func blobLen(n int) int { return uvarintLen(uint64(n)) + n }

func listLen(ids []int) int {
	n := uvarintLen(uint64(len(ids)))
	for _, v := range ids {
		n += varintLen(v)
	}
	return n
}

func appendBlob[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendList(b []byte, ids []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, v := range ids {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// recordHead is what recovery decodes of a frame: the prefix, plus a
// dataset frame's name and sample count.
type recordHead struct {
	Seq  uint64
	Kind recordKind
	// ID is the dataset ID, or the task ID of a detection frame.
	ID      uint64
	Name    string
	Samples int
}

// decoder reads a payload's fields in order. The first error sticks: later
// reads return zero values.
type decoder struct {
	b   []byte // the unread rest of the payload
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// take consumes the next n bytes, or fails and returns nil.
func (d *decoder) take(n int) []byte {
	if n > len(d.b) {
		d.fail("%d-byte field overruns the %d bytes left", n, len(d.b))
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("malformed varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.fail("malformed varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// count reads a declared element count whose elements take at least min
// bytes each, rejecting it before anything is allocated when they cannot
// fit in what is left.
func (d *decoder) count(min int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/min) {
		d.fail("declared count %d overruns the %d bytes left", v, len(d.b))
		return 0
	}
	return int(v)
}

// blob returns the next length-prefixed bytes, aliasing the payload.
func (d *decoder) blob() []byte {
	return d.take(d.count(1))
}

// samples decodes the n samples of a dataset frame into one Set and one
// shared []float64, each sample's X capacity-capped so appending to it
// cannot overwrite its neighbour. The backing is sized by the bytes left,
// which bound the features they can hold. An empty set, or an empty X,
// decodes as nil.
func (d *decoder) samples(n int) dataset.Set {
	if n == 0 {
		return nil
	}
	set := make(dataset.Set, n)
	backing := make([]float64, len(d.b)/8)
	for i := range set {
		s := &set[i]
		s.ID, s.Observed, s.True = d.varint(), d.varint(), d.varint()
		if k := d.count(8); k > 0 {
			raw := d.take(8 * k)
			s.X, backing = backing[:k:k], backing[k:]
			for j := range s.X {
				s.X[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
		}
	}
	return set
}

// finish reports the first decode error, or bytes left after the last
// field.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes after the last field", len(d.b))
	}
	return d.err
}

// readHead decodes a payload's prefix — for a dataset frame also its name
// and sample count — and returns a decoder positioned after them.
func readHead(body []byte) (recordHead, decoder) {
	d := decoder{b: body}
	var h recordHead
	h.Seq = d.u64()
	if k := d.take(1); k != nil {
		h.Kind = recordKind(k[0])
	}
	h.ID = d.u64()
	if h.Kind == kindDataset {
		h.Name = string(d.blob())
		// A sample is at least four bytes: three varints and len(X).
		h.Samples = d.count(4)
	}
	return h, d
}

// recordAt pairs a decoded record head with its frame position.
type recordAt struct {
	rec recordHead
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

// readFrame checks the frame at data[off:] and decodes its head, failing as
// checkFrame does. The returned decoder is positioned after the head.
func readFrame(segment string, data []byte, off int64) (recordHead, decoder, int64, error) {
	body, size, err := checkFrame(segment, data, off)
	if err != nil {
		return recordHead{}, decoder{}, size, err
	}
	h, d := readHead(body)
	if d.err != nil {
		return h, d, size, &CorruptionError{Segment: segment, Offset: off, Reason: fmt.Sprintf("payload decode: %v", d.err)}
	}
	return h, d, size, nil
}

// readSegment scans every frame of one segment image, decoding only each
// record's head: sample bytes and ID lists are checksummed, not decoded.
// With lenientTail a torn frame, or a damaged final one, is dropped and
// accounted in the scan; without it (sealed segments) any damage is a
// *CorruptionError. The returned records carry their frame offsets for
// dead-byte accounting.
func readSegment(segment string, data []byte, lenientTail bool) ([]recordAt, SegmentScan, error) {
	var recs []recordAt
	var scan SegmentScan
	off := int64(0)
	for off < int64(len(data)) {
		rec, _, size, err := readFrame(segment, data, off)
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
