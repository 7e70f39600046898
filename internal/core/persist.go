package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"enld/internal/dataset"
	"enld/internal/fsio"
	"enld/internal/nn"
	"enld/internal/noise"
)

// platformSnapshot is the gob wire format of a Platform. The model is
// embedded as its own gob stream (nn.Network has private fields and its own
// Save/Load), so the snapshot carries it as raw bytes.
type platformSnapshot struct {
	ModelBytes []byte
	Cond       noise.Conditional
	It         dataset.Set
	Ic         dataset.Set
	Config     PlatformConfig
	SetupTime  time.Duration
}

// Save persists the platform — general model, probability estimate,
// inventory halves and configuration — so a restarted service can resume
// serving detection requests without repeating the setup phase.
func (p *Platform) Save(w io.Writer) error {
	var model bytesBuffer
	if err := p.Model.Save(&model); err != nil {
		return fmt.Errorf("core: save platform model: %w", err)
	}
	snap := platformSnapshot{
		ModelBytes: model.data,
		Cond:       p.Cond,
		It:         p.It,
		Ic:         p.Ic,
		Config:     p.Config,
		SetupTime:  p.SetupTime,
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: save platform: %w", err)
	}
	return nil
}

// LoadPlatform reads a platform previously written with Save.
func LoadPlatform(r io.Reader) (*Platform, error) {
	var snap platformSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: load platform: %w", err)
	}
	if len(snap.ModelBytes) == 0 {
		return nil, errors.New("core: load platform: missing model")
	}
	model, err := nn.Load(&bytesBuffer{data: snap.ModelBytes})
	if err != nil {
		return nil, fmt.Errorf("core: load platform model: %w", err)
	}
	if model.Classes() != snap.Config.Classes || model.InputDim() != snap.Config.InputDim {
		return nil, errors.New("core: load platform: model/config mismatch")
	}
	if len(snap.It) == 0 || len(snap.Ic) == 0 {
		return nil, errors.New("core: load platform: empty inventory halves")
	}
	if err := model.CheckFinite(); err != nil {
		return nil, fmt.Errorf("core: load platform: %w", err)
	}
	return &Platform{
		Model:     model,
		Cond:      snap.Cond,
		It:        snap.It,
		Ic:        snap.Ic,
		Config:    snap.Config,
		SetupTime: snap.SetupTime,
	}, nil
}

// SavePlatformFile atomically persists p to path via the shared
// tmp+fsync+rename helper, so a crash mid-save leaves the previous snapshot
// intact rather than a torn file.
func SavePlatformFile(p *Platform, path string) error {
	return fsio.WriteFileAtomic(path, func(w io.Writer) error {
		if err := p.Save(w); err != nil {
			return fmt.Errorf("core: save platform %s: %w", path, err)
		}
		return nil
	})
}

// LoadPlatformFile reads a platform snapshot written with SavePlatformFile.
// Torn, corrupted or foreign files are rejected with descriptive errors (the
// embedded model snapshot carries its own version header and CRC), so a
// caller can safely fall back to a fresh setup when the load fails.
func LoadPlatformFile(path string) (*Platform, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load platform %s: %w", path, err)
	}
	defer f.Close()
	p, err := LoadPlatform(f)
	if err != nil {
		return nil, fmt.Errorf("core: load platform %s: %w", path, err)
	}
	return p, nil
}

// PlatformStore is the slice of a durable inventory the platform snapshot
// needs: store and retrieve one opaque snapshot blob. lake.Inventory
// satisfies it structurally; core deliberately avoids importing the lake
// package so the dependency keeps pointing lake → core-free.
type PlatformStore interface {
	SavePlatform(snapshot []byte) error
	LoadPlatform() ([]byte, error)
}

// SavePlatformInventory persists p's snapshot into a durable inventory. The
// backend decides durability mechanics (an appended CRC-framed record for
// the segment log); a nil error means the snapshot is durable.
func SavePlatformInventory(p *Platform, inv PlatformStore) error {
	var buf bytesBuffer
	if err := p.Save(&buf); err != nil {
		return err
	}
	if err := inv.SavePlatform(buf.data); err != nil {
		return fmt.Errorf("core: save platform to inventory: %w", err)
	}
	return nil
}

// LoadPlatformInventory restores the platform from a durable inventory.
// Backend errors (including lake.ErrNoSnapshot for a fresh store) are
// wrapped with %w, so callers can still errors.Is against the sentinel.
func LoadPlatformInventory(inv PlatformStore) (*Platform, error) {
	data, err := inv.LoadPlatform()
	if err != nil {
		return nil, fmt.Errorf("core: load platform from inventory: %w", err)
	}
	p, err := LoadPlatform(&bytesBuffer{data: data})
	if err != nil {
		return nil, fmt.Errorf("core: load platform from inventory: %w", err)
	}
	return p, nil
}

// bytesBuffer is a minimal in-memory io.ReadWriter; bytes.Buffer would work
// but this keeps the read position explicit for the nested gob stream.
type bytesBuffer struct {
	data []byte
	off  int
}

func (b *bytesBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *bytesBuffer) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
