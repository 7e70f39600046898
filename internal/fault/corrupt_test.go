package fault

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"enld/internal/mat"
	"enld/internal/nn"
)

func TestTearFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TearFile(path, 0.4); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 40 {
		t.Fatalf("torn file is %d bytes, want 40", info.Size())
	}
	for _, frac := range []float64{-0.1, 1.0, 1.5} {
		if err := TearFile(path, frac); err == nil {
			t.Fatalf("tear with frac %v succeeded", frac)
		}
	}
	if err := TearFile(filepath.Join(t.TempDir(), "absent"), 0.5); err == nil {
		t.Fatal("tearing a missing file succeeded")
	}
}

func TestTruncateAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TruncateAt(path, 37); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 37 {
		t.Fatalf("truncated file is %d bytes, want 37", info.Size())
	}
	for _, off := range []int64{-1, 38, 1000} {
		if err := TruncateAt(path, off); err == nil {
			t.Fatalf("truncate at %d succeeded", off)
		}
	}
	if err := TruncateAt(filepath.Join(t.TempDir(), "absent"), 0); err == nil {
		t.Fatal("truncating a missing file succeeded")
	}
}

func TestDuplicateTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte{1, 2, 3, 4}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := DuplicateTail(path, 2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("file = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("file = %v, want %v", got, want)
		}
	}
	for _, n := range []int64{0, -3, 7} {
		if err := DuplicateTail(path, n); err == nil {
			t.Fatalf("duplicating %d bytes succeeded", n)
		}
	}
	if err := DuplicateTail(filepath.Join(t.TempDir(), "absent"), 1); err == nil {
		t.Fatal("duplicating tail of a missing file succeeded")
	}
}

func TestCorruptFileByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(path, []byte{1, 2, 3, 4}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CorruptFileByte(path, 2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3 ^ 0xff, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("file = %v, want %v", got, want)
		}
	}
	if err := CorruptFileByte(path, 99); err == nil {
		t.Fatal("corrupting past EOF succeeded")
	}
}

// TestTornSnapshotRejected ties the injectors to the snapshot format: a
// checkpoint torn or bit-flipped on disk must be refused by nn.Load.
func TestTornSnapshotRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.nn")
	net := nn.NewNetwork([]int{3, 5, 2}, mat.NewRNG(4))
	save := func() {
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	load := func() error {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = nn.Load(bytes.NewReader(raw))
		return err
	}

	save()
	if err := TearFile(path, 0.6); err != nil {
		t.Fatal(err)
	}
	if load() == nil {
		t.Fatal("torn snapshot loaded successfully")
	}

	save()
	if err := CorruptFileByte(path, 33); err != nil {
		t.Fatal(err)
	}
	if load() == nil {
		t.Fatal("bit-flipped snapshot loaded successfully")
	}
}
