package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"enld/internal/mat"
)

// Snapshot wire format (version 1):
//
//	offset  size  field
//	0       6     magic "ENLDNN"
//	6       2     format version, big-endian uint16
//	8       8     payload length, big-endian uint64
//	16      4     CRC-32 (IEEE) of the payload, big-endian uint32
//	20      n     gob-encoded snapshot payload
//
// The header lets Load reject foreign files (bad magic), files written by a
// future incompatible format (version), truncated files (declared length
// outrunning the data) and bit-flipped files (CRC mismatch) with precise
// errors before a single gob byte is interpreted.
const (
	snapshotMagic   = "ENLDNN"
	snapshotVersion = 1
	snapshotHeader  = len(snapshotMagic) + 2 + 8 + 4
	// maxSnapshotBytes bounds the declared payload length so a corrupted or
	// hostile header cannot drive a huge allocation (1 GiB is orders of
	// magnitude above any network this repository builds).
	maxSnapshotBytes = 1 << 30
)

// snapshot is the gob-serializable form of a Network. Only parameters and
// layer sizes are persisted; scratch buffers are rebuilt on load.
type snapshot struct {
	Sizes   []int
	Weights [][]float64
	Biases  [][]float64
}

// encodeSnapshot renders s in the versioned, checksummed wire format.
func encodeSnapshot(s snapshot) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return nil, fmt.Errorf("nn: save: %w", err)
	}
	out := make([]byte, snapshotHeader, snapshotHeader+payload.Len())
	copy(out, snapshotMagic)
	binary.BigEndian.PutUint16(out[6:], snapshotVersion)
	binary.BigEndian.PutUint64(out[8:], uint64(payload.Len()))
	binary.BigEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload.Bytes()))
	return append(out, payload.Bytes()...), nil
}

// Save writes the network's architecture and parameters to w in the
// versioned, CRC-protected snapshot format.
func (n *Network) Save(w io.Writer) error {
	s := snapshot{Sizes: n.sizes}
	for l, wm := range n.Weights {
		s.Weights = append(s.Weights, append([]float64(nil), wm.Data...))
		s.Biases = append(s.Biases, append([]float64(nil), n.Biases[l]...))
	}
	data, err := encodeSnapshot(s)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load reads a network previously written by Save. It rejects foreign,
// truncated, corrupted and malformed snapshots with descriptive errors; a
// nil error guarantees a structurally valid, immediately usable network.
func Load(r io.Reader) (*Network, error) {
	hdr := make([]byte, snapshotHeader)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("nn: load: reading snapshot header: %w", err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return nil, errors.New("nn: load: not an ENLD network snapshot (bad magic)")
	}
	if v := binary.BigEndian.Uint16(hdr[6:]); v != snapshotVersion {
		return nil, fmt.Errorf("nn: load: unsupported snapshot version %d (this build reads version %d)", v, snapshotVersion)
	}
	size := binary.BigEndian.Uint64(hdr[8:])
	if size > maxSnapshotBytes {
		return nil, fmt.Errorf("nn: load: declared payload size %d exceeds the %d-byte limit", size, maxSnapshotBytes)
	}
	// Stream the payload instead of allocating the declared size up front:
	// a corrupted header claiming hundreds of megabytes then costs only the
	// bytes actually present before the truncation error fires.
	var payload bytes.Buffer
	if m, err := io.CopyN(&payload, r, int64(size)); err != nil {
		return nil, fmt.Errorf("nn: load: truncated snapshot: %d of %d payload bytes: %w", m, size, err)
	}
	want := binary.BigEndian.Uint32(hdr[16:])
	if got := crc32.ChecksumIEEE(payload.Bytes()); got != want {
		return nil, fmt.Errorf("nn: load: snapshot checksum mismatch (header %08x, payload %08x): corrupted snapshot", want, got)
	}
	var s snapshot
	if err := gob.NewDecoder(&payload).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if len(s.Sizes) < 2 {
		return nil, errors.New("nn: load: malformed snapshot (sizes)")
	}
	for i, sz := range s.Sizes {
		if sz <= 0 {
			return nil, fmt.Errorf("nn: load: malformed snapshot (non-positive layer size %d at %d)", sz, i)
		}
	}
	if len(s.Weights) != len(s.Sizes)-1 || len(s.Biases) != len(s.Sizes)-1 {
		return nil, errors.New("nn: load: malformed snapshot (layer count)")
	}
	n := &Network{sizes: append([]int(nil), s.Sizes...)}
	for l := 0; l+1 < len(s.Sizes); l++ {
		rows, cols := s.Sizes[l+1], s.Sizes[l]
		if len(s.Weights[l]) != rows*cols || len(s.Biases[l]) != rows {
			return nil, fmt.Errorf("nn: load: malformed snapshot at layer %d", l)
		}
		w := mat.NewMatrix(rows, cols)
		copy(w.Data, s.Weights[l])
		n.Weights = append(n.Weights, w)
		n.Biases = append(n.Biases, append([]float64(nil), s.Biases[l]...))
	}
	n.allocScratch()
	return n, nil
}
