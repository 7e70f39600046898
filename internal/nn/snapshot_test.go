package nn

import (
	"bytes"
	"strings"
	"testing"

	"enld/internal/mat"
)

func snapshotBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func equalParams(a, b *Network) bool {
	for l := range a.Weights {
		for i, v := range a.Weights[l].Data {
			if b.Weights[l].Data[i] != v {
				return false
			}
		}
		for i, v := range a.Biases[l] {
			if b.Biases[l][i] != v {
				return false
			}
		}
	}
	return true
}

// TestLoadRejectsEveryByteCorruption flips every single byte of a valid
// snapshot in turn: each variant must fail to load, whichever of the header
// fields or the payload the flip lands in.
func TestLoadRejectsEveryByteCorruption(t *testing.T) {
	net := NewNetwork([]int{3, 5, 2}, mat.NewRNG(11))
	data := snapshotBytes(t, net)
	for off := range data {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0xff
		if _, err := Load(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("snapshot with byte %d flipped loaded successfully", off)
		}
	}
}

// TestLoadRejectsEveryTruncation cuts a valid snapshot at every possible
// prefix length: none may load.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	net := NewNetwork([]int{3, 5, 2}, mat.NewRNG(11))
	data := snapshotBytes(t, net)
	for n := 0; n < len(data); n++ {
		if _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded successfully", n, len(data))
		}
	}
}

func TestLoadErrorMessagesNameTheFailure(t *testing.T) {
	net := NewNetwork([]int{3, 5, 2}, mat.NewRNG(11))
	data := snapshotBytes(t, net)

	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantSub string
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"future version", func(b []byte) []byte { b[7] = 9; return b }, "unsupported snapshot version"},
		{"huge declared size", func(b []byte) []byte { b[8] = 0xff; return b }, "exceeds"},
		{"short payload", func(b []byte) []byte { return b[:len(b)-3] }, "truncated snapshot"},
		{"payload bit flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "checksum mismatch"},
	}
	for _, tc := range cases {
		mutated := tc.mutate(append([]byte(nil), data...))
		_, err := Load(bytes.NewReader(mutated))
		if err == nil {
			t.Fatalf("%s: load succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestLoadRejectsNonPositiveLayerSizes(t *testing.T) {
	for _, sizes := range [][]int{{2, 0, 2}, {2, -3, 2}, {0, 2}, {2}} {
		s := snapshot{Sizes: sizes}
		for l := 0; l+1 < len(sizes); l++ {
			rows, cols := sizes[l+1], sizes[l]
			if rows < 0 || cols < 0 {
				rows, cols = 0, 0
			}
			s.Weights = append(s.Weights, make([]float64, rows*cols))
			s.Biases = append(s.Biases, make([]float64, rows))
		}
		data, err := encodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("snapshot with sizes %v loaded successfully", sizes)
		}
	}
}
