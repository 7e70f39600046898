package baselines

import (
	"fmt"
	"maps"
	"runtime"
	"sync"
	"testing"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/mat"
	"enld/internal/nn"
)

// TestSharedModelConcurrentDetect: Default and both Confident Learning
// variants run from 8 goroutines against one shared, uncloned θ, and every
// noisy set equals the sequential one. Default's also equals the
// disagreement of a cloned model's detect.Score predictions.
func TestSharedModelConcurrentDetect(t *testing.T) {
	f := newFixture(t, 0.2, 12)
	set := f.incr.Clone()
	set[0].Observed = dataset.Missing
	dets := []detect.Detector{
		Default{Model: f.model},
		ConfidentLearning{Model: f.model, Variant: PruneByClass, Calibration: f.inventory},
		ConfidentLearning{Model: f.model, Variant: PruneByNoiseRate, Calibration: f.inventory},
	}
	want := make([]map[int]bool, len(dets))
	for i, d := range dets {
		res, err := d.Detect(set)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		want[i] = res.Noisy
	}
	scores := detect.Score(f.model.Clone(), set, nil)
	for i, smp := range set {
		flagged := smp.Observed == dataset.Missing || scores.Predicted[i] != smp.Observed
		if want[0][smp.ID] != flagged {
			t.Fatalf("default: sample %d noisy=%v, cloned-model disagreement says %v", smp.ID, want[0][smp.ID], flagged)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(dets))
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range dets {
				j := (i + g) % len(dets)
				res, err := dets[j].Detect(set)
				switch {
				case err != nil:
					errs <- fmt.Errorf("goroutine %d, %s: %w", g, dets[j].Name(), err)
				case !maps.Equal(res.Noisy, want[j]):
					errs <- fmt.Errorf("goroutine %d, %s: noisy set differs from the sequential run", g, dets[j].Name())
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDefaultDetectAllocationBudget: a steady-state Default.Detect on a
// 240-sample emnist-like set allocates fewer bytes than one copy of θ's
// parameters, so it neither clones θ nor builds a fresh inference
// workspace. The minimum over several calls is taken because a GC may empty
// the evaluator pool between any two of them.
func TestDefaultDetectAllocationBudget(t *testing.T) {
	sp := dataset.EMNISTLike(1)
	full, err := sp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	set := full[:240]
	model, err := nn.Build(nn.SimResNet110, sp.FeatureDim, sp.Classes, mat.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	params := 0
	for l, w := range model.Weights {
		params += len(w.Data) + len(model.Biases[l])
	}
	budget := uint64(params * 8)

	det := Default{Model: model}
	least := ^uint64(0)
	var ms runtime.MemStats
	for range 10 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := det.Detect(set); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if least >= budget {
		t.Fatalf("Default.Detect allocates %d B per call, want < %d B (one θ copy)", least, budget)
	}
	t.Logf("Default.Detect: %d B per call, θ copy %d B", least, budget)
}
