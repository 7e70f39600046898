package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enld/internal/dataset"
	"enld/internal/fault"
	"enld/internal/nn"
)

func TestSavePlatformFileLoadPlatformFileRoundTrip(t *testing.T) {
	w := newWorkload(t, 0.2, false, 90)
	path := filepath.Join(t.TempDir(), "platform.gob")
	if err := SavePlatformFile(w.platform, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlatformFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config != w.platform.Config {
		t.Fatal("config not preserved")
	}
	// No temporary files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want 1", len(entries))
	}
}

func TestLoadPlatformFileRejectsTornSnapshot(t *testing.T) {
	w := newWorkload(t, 0.2, false, 91)
	path := filepath.Join(t.TempDir(), "platform.gob")
	if err := SavePlatformFile(w.platform, path); err != nil {
		t.Fatal(err)
	}
	if err := fault.TearFile(path, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlatformFile(path); err == nil {
		t.Fatal("torn platform snapshot loaded successfully")
	}
}

func TestLoadPlatformFileRejectsCorruptedModel(t *testing.T) {
	w := newWorkload(t, 0.2, false, 92)
	path := filepath.Join(t.TempDir(), "platform.gob")
	if err := SavePlatformFile(w.platform, path); err != nil {
		t.Fatal(err)
	}
	// The snapshot bytes are deterministic for a fixed seed, so this flip
	// always lands on the same byte; the layered defenses (outer gob
	// framing, the model's CRC, structural validation) must reject it.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.CorruptFileByte(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlatformFile(path); err == nil {
		t.Fatal("corrupted platform snapshot loaded successfully")
	}
}

func TestLoadPlatformRejectsNonFiniteModel(t *testing.T) {
	w := newWorkload(t, 0.2, false, 93)
	w.platform.Model.Weights[1].Data[5] = math.NaN()
	path := filepath.Join(t.TempDir(), "platform.gob")
	if err := SavePlatformFile(w.platform, path); err != nil {
		t.Fatal(err)
	}
	_, err := LoadPlatformFile(path)
	if err == nil {
		t.Fatal("platform with NaN model weights loaded successfully")
	}
	if !strings.Contains(err.Error(), "unhealthy") {
		t.Fatalf("error %q does not name the health failure", err)
	}
}

// TestNewPlatformRejectsNaNTraining: a platform whose general model trains
// to NaN fails at setup instead of serving from poisoned weights.
func TestNewPlatformRejectsNaNTraining(t *testing.T) {
	sp := dataset.Spec{
		Name: "nan", Classes: 4, FeatureDim: 6, PerClass: 30,
		Separation: 4, Spread: 1, Seed: 95,
	}
	inv, err := sp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Feature 2 is NaN in every sample, so both inventory halves carry it
	// whatever the split.
	for i := range inv {
		inv[i].X[2] = math.NaN()
	}
	cfg := DefaultPlatformConfig(sp.Classes, sp.FeatureDim, 96)
	cfg.Epochs = 2
	p, err := NewPlatform(inv, cfg)
	if !errors.Is(err, nn.ErrUnhealthy) {
		t.Fatalf("NewPlatform error = %v, want one wrapping nn.ErrUnhealthy", err)
	}
	if p != nil {
		t.Fatal("NewPlatform returned a platform trained to NaN")
	}
}
