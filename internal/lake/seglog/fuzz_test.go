package seglog

import (
	"bytes"
	"encoding/binary"
	"testing"

	"enld/internal/dataset"
)

// fuzzFrame builds one valid frame for seeding.
func fuzzFrame(t testing.TB, p payload) []byte {
	t.Helper()
	frame, err := encodeFrame(p)
	if err != nil {
		t.Fatal(err)
	}
	return frame
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
	one := fuzzFrame(f, &record{Seq: 1, Kind: kindDataset, ID: 1, Name: "a",
		Samples: dataset.Set{{ID: 7, X: []float64{1, 2}, Observed: 1, True: 0}}})
	two := fuzzFrame(f, &record{Seq: 2, Kind: kindPlatform, Snapshot: []byte("snap")})
	tomb := fuzzFrame(f, &record{Seq: 3, Kind: kindRemove, ID: 1})

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
	// A detection frame between dataset frames: its payload is a gob type of
	// its own, which the scanner decodes as a record.
	det := fuzzFrame(f, &detection{Seq: 2, Kind: kindDetection, ID: 0, Noisy: []int{7}, Clean: []int{8, 9}, Note: "fuzz"})
	f.Add(append(append(append([]byte{}, one...), det...), tomb...))

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
