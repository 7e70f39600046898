package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"enld/internal/dataset"
)

// sealed seals an encoded frame with seq, as an append does.
func sealed(frame []byte, seq uint64) []byte {
	seal(frame, seq)
	return frame
}

// detection decodes the rest of a detection frame, the inverse of
// detectionFrame. The lake reads outcomes back only through DoneTasks,
// which needs the prefix alone, so only tests decode the body.
func (d *decoder) detection() (note string, noisy, clean []int) {
	note = string(d.blob())
	noisy = d.list()
	clean = d.list()
	return note, noisy, clean
}

// list decodes an ID list; an empty one is nil.
func (d *decoder) list() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = d.varint()
	}
	return ids
}

// FuzzReadSegment throws arbitrary bytes at the segment scanner and checks
// the parsing invariants damage must never break:
//
//   - no panic, whatever the input;
//   - a lenient scan never errors on a structurally torn tail, and the
//     prefix it accepts re-reads strictly (what recovery keeps after
//     truncation must itself be a valid segment);
//   - accepted frames tile the prefix exactly: contiguous offsets from 0 to
//     LiveEnd, dropped bytes covering the remainder;
//   - a strict scan of the same bytes accepts at least as much as nothing —
//     it either errors or agrees with the lenient scan record-for-record.
func FuzzReadSegment(f *testing.F) {
	one := codecRecord{seq: 1, kind: kindDataset, id: 1, name: "a",
		set: dataset.Set{{ID: 7, X: []float64{1, 2}, Observed: 1, True: 0}}}.frame()
	two := sealed(platformFrame([]byte("snap")), 2)
	tomb := sealed(removeFrame(1), 3)

	f.Add([]byte{})
	f.Add(one)
	f.Add(append(append(append([]byte{}, one...), two...), tomb...))
	// Torn tail: a frame cut inside its payload, and one cut inside the
	// header.
	f.Add(append(append([]byte{}, one...), two[:len(two)-3]...))
	f.Add(append(append([]byte{}, one...), two[:headerSize-5]...))
	// Bad magic after a valid frame.
	f.Add(append(append([]byte{}, one...), []byte("XXLDSGgarbage-that-is-long-enough")...))
	// Flipped CRC byte mid-stream.
	flipped := append(append([]byte{}, one...), two...)
	flipped[16] ^= 0xff
	f.Add(flipped)
	// Duplicated final frame (sequence regression is the log's job, but the
	// scanner must still parse it cleanly).
	f.Add(append(append([]byte{}, two...), two...))
	// Oversize declared length.
	big := append([]byte{}, one[:headerSize]...)
	binary.BigEndian.PutUint64(big[8:], maxRecordBytes+1)
	f.Add(big)
	// Version from the future.
	future := append([]byte{}, one...)
	binary.BigEndian.PutUint16(future[6:], recordVersion+1)
	f.Add(future)
	// A detection frame between a dataset frame and its tombstone, and one
	// with a negative task ID as the torn tail.
	det := sealed(detectionFrame(0, []int{7}, []int{8, 9}, "fuzz"), 2)
	f.Add(append(append(append([]byte{}, one...), det...), tomb...))
	neg := sealed(detectionFrame(-3, nil, []int{-1}, ""), 4)
	f.Add(append(append(append([]byte{}, one...), det...), neg[:len(neg)-2]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, scan, err := readSegment("fuzz", data, true)
		if err == nil {
			if scan.LiveEnd < 0 || scan.LiveEnd > int64(len(data)) {
				t.Fatalf("LiveEnd %d outside [0, %d]", scan.LiveEnd, len(data))
			}
			if scan.Records != len(recs) {
				t.Fatalf("scan counts %d records, returned %d", scan.Records, len(recs))
			}
			off := int64(0)
			for i, ra := range recs {
				if ra.off != off || ra.size <= int64(headerSize) {
					t.Fatalf("frame %d at offset %d size %d, want contiguous from %d", i, ra.off, ra.size, off)
				}
				off += ra.size
			}
			if off != scan.LiveEnd {
				t.Fatalf("frames end at %d, LiveEnd %d", off, scan.LiveEnd)
			}
			if scan.TornTail {
				if scan.DroppedAt != scan.LiveEnd || scan.DroppedBytes != int64(len(data))-scan.LiveEnd {
					t.Fatalf("drop accounting %+v does not cover [%d, %d)", scan, scan.LiveEnd, len(data))
				}
				if scan.DroppedBytes <= 0 || scan.DroppedRecords < 1 {
					t.Fatalf("torn tail with empty accounting: %+v", scan)
				}
			} else if scan.LiveEnd != int64(len(data)) {
				t.Fatalf("clean scan stopped at %d of %d bytes", scan.LiveEnd, len(data))
			}

			// The kept prefix must be strictly valid: recovery truncates to
			// LiveEnd and later reopens treat it as sealed.
			strictRecs, strictScan, strictErr := readSegment("fuzz", data[:scan.LiveEnd], false)
			if strictErr != nil {
				t.Fatalf("accepted prefix rejected by strict scan: %v", strictErr)
			}
			if len(strictRecs) != len(recs) || strictScan.LiveEnd != scan.LiveEnd {
				t.Fatalf("strict rescan: %d records to %d, lenient had %d to %d",
					len(strictRecs), strictScan.LiveEnd, len(recs), scan.LiveEnd)
			}
			for i := range recs {
				if !bytes.Equal(frameBytes(data, recs[i]), frameBytes(data, strictRecs[i])) {
					t.Fatalf("frame %d differs between scans", i)
				}
			}
		}

		// Strict mode must never be more permissive than lenient mode.
		sRecs, _, sErr := readSegment("fuzz", data, false)
		if sErr == nil && err != nil {
			t.Fatalf("strict scan accepted what lenient rejected: %v", err)
		}
		if sErr == nil && len(sRecs) != len(recs) {
			t.Fatalf("strict scan found %d records, lenient %d", len(sRecs), len(recs))
		}
	})
}

// frameBytes slices a frame's raw bytes out of the segment image.
func frameBytes(data []byte, ra recordAt) []byte {
	return data[ra.off : ra.off+ra.size]
}

// codecRecord is one record of any kind, as the codec round-trips it.
type codecRecord struct {
	seq   uint64
	kind  recordKind
	id    uint64 // dataset ID, or the task ID of a detection
	name  string // dataset name, or a detection's note
	set   dataset.Set
	noisy []int
	clean []int
	blob  []byte
}

// frame encodes and seals r. The ID is stamped for every kind: platform
// frames carry 0, unless a fuzzed payload said otherwise.
func (r codecRecord) frame() []byte {
	var frame []byte
	switch r.kind {
	case kindDataset:
		frame = datasetFrame(r.name, r.set)
	case kindDetection:
		frame = detectionFrame(int(r.id), r.noisy, r.clean, r.name)
	case kindPlatform:
		frame = platformFrame(r.blob)
	default:
		frame = removeFrame(r.id)
	}
	binary.LittleEndian.PutUint64(frame[idOff:], r.id)
	return sealed(frame, r.seq)
}

// decodeRecord decodes frame through the path loads take, expecting its
// head's sequence number and kind.
func decodeRecord(frame []byte) (codecRecord, error) {
	var r codecRecord
	h, _, _, err := readFrame("fuzz", frame, 0)
	if err != nil {
		return r, err
	}
	r.seq, r.kind, r.id = h.Seq, h.Kind, h.ID
	err = frameLoc{seq: h.Seq, segment: "fuzz"}.decode(frame, h.Kind, func(h recordHead, d *decoder) {
		switch h.Kind {
		case kindDataset:
			r.name, r.set = h.Name, d.samples(h.Samples)
		case kindDetection:
			r.name, r.noisy, r.clean = d.detection()
		case kindPlatform:
			r.blob = d.blob()
		}
	})
	return r, err
}

// sameRecord compares two records field by field, floats by their bits (so
// NaN payloads and −0 count), and an empty blob equal to a nil one.
func sameRecord(a, b codecRecord) bool {
	if a.seq != b.seq || a.kind != b.kind || a.id != b.id || a.name != b.name ||
		!reflect.DeepEqual(a.noisy, b.noisy) || !reflect.DeepEqual(a.clean, b.clean) ||
		!bytes.Equal(a.blob, b.blob) || len(a.set) != len(b.set) {
		return false
	}
	for i, s := range a.set {
		t := b.set[i]
		if s.ID != t.ID || s.Observed != t.Observed || s.True != t.True || len(s.X) != len(t.X) || (s.X == nil) != (t.X == nil) {
			return false
		}
		for j, x := range s.X {
			if math.Float64bits(x) != math.Float64bits(t.X[j]) {
				return false
			}
		}
	}
	return true
}

// fuzzSource turns fuzz bytes into record fields; past the end it reads
// zeros.
type fuzzSource []byte

func (s *fuzzSource) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

func (s *fuzzSource) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// int is a small signed value (Missing among them) or a full-width one.
func (s *fuzzSource) int() int {
	if b := s.byte(); b&1 == 0 {
		return int(int8(b)) >> 1
	}
	return int(int64(s.u64()))
}

// ints is a list of up to 3 IDs; an empty one is nil, as it decodes.
func (s *fuzzSource) ints() []int {
	var ids []int
	for n := s.byte() % 4; n > 0; n-- {
		ids = append(ids, s.int())
	}
	return ids
}

func (s *fuzzSource) text() string {
	n := int(s.byte() % 6)
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.byte())
	}
	return string(out)
}

// record draws one record of any kind. Dataset features are raw float64
// bits, so NaN payloads and −0 come up; an empty X or set is nil, as it
// decodes.
func (s *fuzzSource) record() codecRecord {
	r := codecRecord{kind: recordKind(s.byte()%4 + 1), seq: s.u64()}
	switch r.kind {
	case kindDataset:
		r.id, r.name = s.u64(), s.text()
		for n := s.byte() % 5; n > 0; n-- {
			smp := dataset.Sample{ID: s.int(), Observed: s.int(), True: s.int()}
			for k := s.byte() % 4; k > 0; k-- {
				smp.X = append(smp.X, math.Float64frombits(s.u64()))
			}
			r.set = append(r.set, smp)
		}
	case kindDetection:
		r.id = uint64(s.int())
		r.name, r.noisy, r.clean = s.text(), s.ints(), s.ints()
	case kindPlatform:
		r.blob = []byte(s.text())
	case kindRemove:
		r.id = s.u64()
	}
	return r
}

// withPayload frames an arbitrary payload under a valid version-2 header.
func withPayload(payload []byte) []byte {
	frame := make([]byte, headerSize, headerSize+len(payload))
	copy(frame, recordMagic)
	binary.BigEndian.PutUint16(frame[6:], recordVersion)
	binary.BigEndian.PutUint64(frame[8:], uint64(len(payload)))
	binary.BigEndian.PutUint32(frame[16:], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// FuzzRecordCodec checks the payload codec on both sides:
//
//   - a record of any kind, drawn from the input, decodes to itself (the
//     fixed cases cover NaN payload bits, −0, Missing labels, empty X, and
//     empty names, notes, lists and sets);
//   - the same record with one byte more after its last field is a
//     *CorruptionError;
//   - the input taken as a payload decodes to an error or a value, never a
//     panic, and a value it decodes to re-encodes to a frame that decodes to
//     the same value.
func FuzzRecordCodec(f *testing.F) {
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	fixed := []codecRecord{
		{seq: 1, kind: kindDataset, id: 3, name: "", set: dataset.Set{
			{ID: 0, X: []float64{nanPayload, negZero, math.Inf(-1)}, Observed: dataset.Missing, True: 4},
			{ID: -9, X: nil, Observed: 2, True: 2},
			{ID: math.MaxInt64, X: []float64{math.SmallestNonzeroFloat64}, Observed: math.MinInt64, True: dataset.Missing},
		}},
		{seq: 2, kind: kindDataset, id: 4, name: "empty"},
		{seq: 3, kind: kindDetection, id: uint64(1 << 40), name: "", noisy: nil, clean: []int{dataset.Missing, math.MinInt64}},
		{seq: 4, kind: kindDetection, id: uint64(math.MaxUint64), name: "negative task", noisy: []int{5}},
		{seq: 5, kind: kindPlatform, blob: nil},
		{seq: math.MaxUint64, kind: kindRemove, id: math.MaxUint64},
	}
	check := func(t testing.TB, r codecRecord) {
		t.Helper()
		frame := r.frame()
		got, err := decodeRecord(frame)
		if err != nil || !sameRecord(got, r) {
			t.Fatalf("round trip of %+v = %+v, %v", r, got, err)
		}
		long := withPayload(append(append([]byte{}, frame[headerSize:]...), 0))
		var ce *CorruptionError
		if _, err := decodeRecord(long); !errors.As(err, &ce) || !strings.Contains(ce.Reason, "trailing") {
			t.Fatalf("kind %d with a trailing byte: err = %v, want a trailing-bytes CorruptionError", r.kind, err)
		}
	}
	for _, r := range fixed {
		check(f, r)
		f.Add(r.frame()[headerSize:])
	}
	f.Add([]byte{})
	f.Add(make([]byte, prefixSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzSource(data)
		check(t, src.record())

		got, err := decodeRecord(withPayload(data))
		if err != nil || got.kind < kindDataset || got.kind > kindDetection {
			return // recovery refuses unknown kinds
		}
		again, err := decodeRecord(got.frame())
		if err != nil || !sameRecord(again, got) {
			t.Fatalf("decoded %+v, re-encoded it and decoded %+v, %v", got, again, err)
		}
	})
}
