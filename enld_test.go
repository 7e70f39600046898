package enld

// Integration tests exercising the public API end-to-end, the way the
// Example functions and a downstream user would.

import "testing"

func TestPublicAPIEndToEnd(t *testing.T) {
	const seed = 1
	rng := NewRNG(seed)

	spec := EMNISTLike(seed).Scale(0.5)
	data, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := PairNoise(spec.Classes, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := ApplyNoise(data, tm, rng)
	if err != nil {
		t.Fatal(err)
	}
	if noisy == 0 {
		t.Fatal("no noise applied")
	}

	inventory, pool, err := SplitRatio(data, 2.0/3.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := Shard(pool, ShardSpec{Shards: 2, MinClasses: 5, MaxClasses: 6, Drift: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultPlatformConfig(spec.Classes, spec.FeatureDim, seed)
	cfg.Epochs = 10
	platform, err := NewPlatform(inventory, cfg)
	if err != nil {
		t.Fatal(err)
	}

	detector := &ENLD{Platform: platform, Config: DefaultENLDConfig(seed)}
	var dets []Detection
	for _, shard := range shards {
		res, err := detector.Detect(shard)
		if err != nil {
			t.Fatal(err)
		}
		dets = append(dets, EvaluateDetection(shard, res.Noisy))
	}
	agg := AggregateDetections(dets)
	if agg.F1.Mean < 0.6 {
		t.Fatalf("public-API pipeline F1 = %v", agg.F1.Mean)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	const seed = 2
	rng := NewRNG(seed)
	spec := EMNISTLike(seed).Scale(0.4)
	data, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := PairNoise(spec.Classes, 0.2)
	if _, err := ApplyNoise(data, tm, rng); err != nil {
		t.Fatal(err)
	}
	inventory, pool, err := SplitRatio(data, 2.0/3.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPlatformConfig(spec.Classes, spec.FeatureDim, seed)
	cfg.Epochs = 10
	platform, err := NewPlatform(inventory, cfg)
	if err != nil {
		t.Fatal(err)
	}

	detectors := []Detector{
		DefaultDetector{Model: platform.Model},
		ConfidentLearning{Model: platform.Model, Variant: PruneByClass},
		ConfidentLearning{Model: platform.Model, Variant: PruneByNoiseRate},
		TopoFilter{
			InputDim: spec.FeatureDim, Classes: spec.Classes, Inventory: inventory,
			Config: TopoFilterConfig{Epochs: 6, BatchSize: 32, LR: 0.01, Momentum: 0.9, KNN: 5, Seed: seed},
		},
	}
	for _, d := range detectors {
		res, err := d.Detect(pool)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		det := EvaluateDetection(pool, res.Noisy)
		if det.F1 <= 0.3 {
			t.Errorf("%s F1 = %v", d.Name(), det.F1)
		}
	}
}

func TestPublicAPIMissingLabels(t *testing.T) {
	set := Set{
		{ID: 1, X: []float64{1}, Observed: 0, True: 0},
		{ID: 2, X: []float64{2}, Observed: 1, True: 1},
	}
	masked, err := MaskMissing(set, 1.0, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if masked != 2 || set[0].Observed != Missing {
		t.Fatalf("MaskMissing: %d masked, label %d", masked, set[0].Observed)
	}
}

func TestPublicAPISamplingStrategies(t *testing.T) {
	// All strategy types satisfy the exported interface.
	strategies := []SamplingStrategy{
		ContrastiveSampling{},
		RandomSampling{},
		HighestConfidenceSampling{},
		LeastConfidenceSampling{},
		EntropySampling{},
		PseudoSampling{},
	}
	seen := map[string]bool{}
	for _, s := range strategies {
		if seen[s.Name()] {
			t.Fatalf("duplicate strategy %q", s.Name())
		}
		seen[s.Name()] = true
	}
}

func TestPublicAPIArchitectures(t *testing.T) {
	for _, a := range []Arch{SimResNet110, SimDenseNet121, SimResNet164} {
		cfg := DefaultPlatformConfig(4, 6, 3)
		cfg.Arch = a
		cfg.Epochs = 1
		inv := make(Set, 40)
		rng := NewRNG(4)
		for i := range inv {
			inv[i] = Sample{ID: i, X: rng.NormVec(make([]float64, 6), 0, 1), Observed: i % 4, True: i % 4}
		}
		if _, err := NewPlatform(inv, cfg); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
}
