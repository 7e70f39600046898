package core

import (
	"testing"

	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/noise"
	"enld/internal/obs"
)

// observedWorkload is newWorkload with a registry attached from setup on.
func observedWorkload(t *testing.T, reg *obs.Registry) *testWorkload {
	t.Helper()
	sp := dataset.Spec{
		Name: "core-obs", Classes: 8, FeatureDim: 10, PerClass: 60,
		Separation: 4, Spread: 1, Seed: 11,
	}
	full, err := sp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := noise.Pair(sp.Classes, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noise.Apply(full, tm, mat.NewRNG(12)); err != nil {
		t.Fatal(err)
	}
	inv, incr, err := dataset.SplitRatio(full, 2.0/3.0, mat.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPlatformConfig(sp.Classes, sp.FeatureDim, 14)
	cfg.Epochs = 6
	p, err := NewPlatformObserved(inv, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorkload{platform: p, incr: incr, classes: sp.Classes}
}

// TestDetectPhaseSpans: an observed DetectFull traces every paper phase —
// split, estimate, knn, finetune, vote — plus platform setup, and the trainer
// and pool families carry data.
func TestDetectPhaseSpans(t *testing.T) {
	reg := obs.NewRegistry()
	w := observedWorkload(t, reg)

	e := &ENLD{Platform: w.platform, Config: DefaultConfig(21)}
	e.Config.Iterations = 2
	if _, err := e.DetectFull(w.incr); err != nil {
		t.Fatal(err)
	}

	for _, span := range []string{
		"platform/estimate",
		"detect/split",
		"detect/estimate",
		"detect/knn",
		"detect/finetune",
		"detect/vote",
	} {
		h := reg.Histogram(obs.SpanFamily, "Duration of traced spans, by span name.",
			obs.DefBuckets, obs.Label{Key: "span", Value: span})
		if h.Count() == 0 {
			t.Errorf("span %q recorded no durations", span)
		}
	}

	epochs := reg.Histogram("enld_train_epoch_seconds",
		"Wall-clock duration of one training epoch.", obs.DefBuckets)
	if epochs.Count() == 0 {
		t.Error("trainer recorded no epochs")
	}
}

// TestObservedDetectMatchesUnobserved: attaching a registry does not change
// detection output — the metric stream only reads and times.
func TestObservedDetectMatchesUnobserved(t *testing.T) {
	plain := observedWorkload(t, nil)
	observed := observedWorkload(t, obs.NewRegistry())

	run := func(w *testWorkload) *FullResult {
		e := &ENLD{Platform: w.platform, Config: DefaultConfig(21)}
		e.Config.Iterations = 2
		res, err := e.DetectFull(w.incr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(plain), run(observed)
	if !sameIDSet(a.Noisy, b.Noisy) {
		t.Fatal("observed detection diverged from unobserved")
	}
}
