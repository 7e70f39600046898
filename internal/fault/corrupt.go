package fault

import (
	"fmt"
	"os"
)

// File corruption injectors. The lake-serving chaos wrapper damages
// detector *inputs*; these damage *files on disk* — the torn writes, flipped
// bytes and replayed appends that checksummed snapshots and the segment
// log's CRCs exist to survive.

// TearFile truncates path to frac of its current size, simulating a crash
// partway through a non-atomic checkpoint write. frac must be in [0, 1).
func TearFile(path string, frac float64) error {
	if frac < 0 || frac >= 1 {
		return fmt.Errorf("fault: tear fraction %v outside [0, 1)", frac)
	}
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("fault: tear %s: %w", path, err)
	}
	return os.Truncate(path, int64(float64(info.Size())*frac))
}

// TruncateAt cuts path to exactly offset bytes, simulating a crash at a
// chosen point of a write — the byte-precise sibling of TearFile for tests
// that aim at a specific record boundary. offset must be in [0, size].
func TruncateAt(path string, offset int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("fault: truncate %s: %w", path, err)
	}
	if offset < 0 || offset > info.Size() {
		return fmt.Errorf("fault: truncate %s at %d: outside [0, %d]", path, offset, info.Size())
	}
	return os.Truncate(path, offset)
}

// DuplicateTail re-appends the final n bytes of path, modelling a replayed
// or double-flushed write: an append that was retried after an unreported
// success leaves the same record twice at the log tail. n must be in
// (0, size].
func DuplicateTail(path string, n int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fault: duplicate tail %s: %w", path, err)
	}
	if n <= 0 || n > int64(len(data)) {
		return fmt.Errorf("fault: duplicate tail %s: %d bytes outside (0, %d]", path, n, len(data))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("fault: duplicate tail %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.Write(data[int64(len(data))-n:]); err != nil {
		return fmt.Errorf("fault: duplicate tail %s: %w", path, err)
	}
	return nil
}

// CorruptFileByte XORs the byte at offset with 0xff, modelling a single
// flipped storage byte in an otherwise intact checkpoint.
func CorruptFileByte(path string, offset int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("fault: corrupt %s: %w", path, err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, offset); err != nil {
		return fmt.Errorf("fault: corrupt %s at %d: %w", path, offset, err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, offset); err != nil {
		return fmt.Errorf("fault: corrupt %s at %d: %w", path, offset, err)
	}
	return nil
}
