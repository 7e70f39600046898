package core

import (
	"bytes"
	"testing"

	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/metrics"
	"enld/internal/noise"
	"enld/internal/sampling"
)

// testWorkload bundles a platform over a noisy synthetic task and a noisy
// incremental dataset.
type testWorkload struct {
	platform *Platform
	incr     dataset.Set
	classes  int
}

func newWorkload(t *testing.T, eta float64, grouped bool, seed uint64) *testWorkload {
	t.Helper()
	sp := dataset.Spec{
		Name: "core", Classes: 8, FeatureDim: 10, PerClass: 60,
		Separation: 4, Spread: 1, Seed: seed,
	}
	if grouped {
		sp.GroupSize = 4
		sp.WithinGroup = 0.3
	}
	full, err := sp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if eta > 0 {
		tm, err := noise.Pair(sp.Classes, eta)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := noise.Apply(full, tm, mat.NewRNG(seed+1)); err != nil {
			t.Fatal(err)
		}
	}
	inv, incr, err := dataset.SplitRatio(full, 2.0/3.0, mat.NewRNG(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPlatformConfig(sp.Classes, sp.FeatureDim, seed+3)
	cfg.Epochs = 12
	p, err := NewPlatform(inv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorkload{platform: p, incr: incr, classes: sp.Classes}
}

func TestNewPlatformInvariants(t *testing.T) {
	w := newWorkload(t, 0.2, false, 1)
	p := w.platform
	if len(p.It) == 0 || len(p.Ic) == 0 {
		t.Fatal("empty inventory halves")
	}
	// I_t and I_c are disjoint.
	seen := map[int]bool{}
	for _, s := range p.It {
		seen[s.ID] = true
	}
	for _, s := range p.Ic {
		if seen[s.ID] {
			t.Fatalf("sample %d in both halves", s.ID)
		}
	}
	// Conditional rows are probability distributions.
	for i, row := range p.Cond {
		var sum float64
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative probability in row %d", i)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if p.SetupTime <= 0 {
		t.Fatal("setup time not recorded")
	}
	if p.SetupMeter.TrainSampleVisits == 0 {
		t.Fatal("setup meter not charged")
	}
}

func TestNewPlatformErrors(t *testing.T) {
	if _, err := NewPlatform(nil, DefaultPlatformConfig(4, 4, 1)); err == nil {
		t.Error("empty inventory accepted")
	}
	set := dataset.Set{{ID: 0, X: []float64{1}, Observed: 0, True: 0}, {ID: 1, X: []float64{2}, Observed: 1, True: 1}}
	if _, err := NewPlatform(set, PlatformConfig{Classes: 1, InputDim: 1}); err == nil {
		t.Error("1-class config accepted")
	}
	if _, err := NewPlatform(set, PlatformConfig{Classes: 2, InputDim: 0}); err == nil {
		t.Error("0-dim config accepted")
	}
}

func TestProbabilityEstimationRecoversPairNoise(t *testing.T) {
	// With pair noise at rate η on a learnable task, P̃(y* = i+1 | ỹ = i+1)
	// should dominate its row, and P̃(y* = i | ỹ = i+1) should carry roughly
	// the mass of mislabelled class-i samples.
	w := newWorkload(t, 0.3, false, 2)
	cond := w.platform.Cond
	// At this test scale individual classes can land close together, so
	// assert in aggregate: the mean diagonal mass dominates and most rows
	// put their maximum on the diagonal.
	var diagSum float64
	diagMax := 0
	for i := 0; i < w.classes; i++ {
		diagSum += cond[i][i]
		isMax := true
		for j := 0; j < w.classes; j++ {
			if j != i && cond[i][j] > cond[i][i] {
				isMax = false
				break
			}
		}
		if isMax {
			diagMax++
		}
	}
	if mean := diagSum / float64(w.classes); mean < 0.5 {
		t.Errorf("mean diagonal P̃ = %v, want >= 0.5", mean)
	}
	if diagMax < w.classes/2 {
		t.Errorf("diagonal is row max in only %d/%d rows", diagMax, w.classes)
	}
	// Off-diagonal mass concentrates on the pair-noise source class
	// (ỹ = i+1 comes from y* = i).
	offDiagOK := 0
	for i := 0; i < w.classes; i++ {
		j := (i + 1) % w.classes
		// In row j, the largest off-diagonal entry should be column i.
		best, bestV := -1, 0.0
		for c := 0; c < w.classes; c++ {
			if c == j {
				continue
			}
			if cond[j][c] > bestV {
				best, bestV = c, cond[j][c]
			}
		}
		if best == i {
			offDiagOK++
		}
	}
	if offDiagOK < w.classes/2 {
		t.Errorf("pair-noise structure recovered in only %d/%d rows", offDiagOK, w.classes)
	}
}

func detectF1(t *testing.T, w *testWorkload, cfg Config) metrics.Detection {
	t.Helper()
	e := &ENLD{Platform: w.platform, Config: cfg}
	res, err := e.DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range w.incr {
		n, c := res.Noisy[smp.ID], res.Clean[smp.ID]
		if n == c {
			t.Fatalf("sample %d noisy=%v clean=%v", smp.ID, n, c)
		}
	}
	return metrics.EvaluateDetection(w.incr, res.Noisy)
}

func TestENLDDetectsNoise(t *testing.T) {
	w := newWorkload(t, 0.2, false, 3)
	det := detectF1(t, w, DefaultConfig(4))
	if det.F1 < 0.75 {
		t.Fatalf("ENLD F1 = %v", det.F1)
	}
}

func TestENLDOnGroupedTask(t *testing.T) {
	w := newWorkload(t, 0.3, true, 5)
	det := detectF1(t, w, DefaultConfig(6))
	if det.F1 < 0.55 {
		t.Fatalf("ENLD F1 on grouped task = %v", det.F1)
	}
}

func TestENLDConfigValidation(t *testing.T) {
	w := newWorkload(t, 0.1, false, 7)
	e := &ENLD{Platform: w.platform, Config: Config{}}
	if _, err := e.DetectFull(w.incr); err == nil {
		t.Error("zero config accepted")
	}
	e = &ENLD{Platform: nil, Config: DefaultConfig(1)}
	if _, err := e.DetectFull(w.incr); err == nil {
		t.Error("nil platform accepted")
	}
	e = &ENLD{Platform: w.platform, Config: DefaultConfig(1)}
	if _, err := e.DetectFull(nil); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestENLDSnapshotsAndDeterminism(t *testing.T) {
	w := newWorkload(t, 0.2, false, 8)
	cfg := DefaultConfig(9)
	e := &ENLD{Platform: w.platform, Config: cfg}
	a, err := e.DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Snapshots) != cfg.Iterations {
		t.Fatalf("%d snapshots, want %d", len(a.Snapshots), cfg.Iterations)
	}
	// Ambiguous counts should broadly shrink as fine-tuning proceeds
	// (Fig. 13(b)); require the final count not to exceed the first.
	first := a.Snapshots[0].AmbiguousCount
	last := a.Snapshots[len(a.Snapshots)-1].AmbiguousCount
	if last > first {
		t.Errorf("ambiguous grew: %d -> %d", first, last)
	}
	// Determinism: identical run, identical detection.
	b, err := (&ENLD{Platform: w.platform, Config: cfg}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Noisy) != len(b.Noisy) {
		t.Fatalf("non-deterministic: %d vs %d noisy", len(a.Noisy), len(b.Noisy))
	}
	for id := range a.Noisy {
		if !b.Noisy[id] {
			t.Fatal("non-deterministic noisy sets")
		}
	}
}

func TestENLDCleanSetMonotone(t *testing.T) {
	// S accumulates across iterations: the noisy set may only shrink.
	w := newWorkload(t, 0.3, false, 10)
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(11)}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Snapshots); i++ {
		prev, cur := res.Snapshots[i-1].Noisy, res.Snapshots[i].Noisy
		for id := range cur {
			if !prev[id] {
				t.Fatalf("iteration %d reintroduced noisy sample %d", i, id)
			}
		}
	}
}

func TestENLDBeatsDefaultHighQuality(t *testing.T) {
	// The central claim (Figs. 4–7): fine-grained NLD with contrastive
	// sampling beats raw model disagreement, especially on confusable
	// classes. Compare ENLD's F1 against the Default rule computed inline.
	w := newWorkload(t, 0.3, true, 12)
	det := detectF1(t, w, DefaultConfig(13))

	defaultNoisy := map[int]bool{}
	for _, smp := range w.incr {
		if w.platform.Model.Predict(smp.X) != smp.Observed {
			defaultNoisy[smp.ID] = true
		}
	}
	defaultDet := metrics.EvaluateDetection(w.incr, defaultNoisy)
	if det.F1 < defaultDet.F1-0.02 {
		t.Fatalf("ENLD F1 %v below Default %v", det.F1, defaultDet.F1)
	}
}

func TestENLDSelectedInventoryIsMostlyClean(t *testing.T) {
	w := newWorkload(t, 0.2, false, 14)
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(15)}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SelectedInventory) == 0 {
		t.Fatal("no inventory samples selected")
	}
	byID := map[int]dataset.Sample{}
	for _, smp := range w.platform.Ic {
		byID[smp.ID] = smp
	}
	clean := 0
	for id := range res.SelectedInventory {
		smp, ok := byID[id]
		if !ok {
			t.Fatalf("selected ID %d not in I_c", id)
		}
		if !smp.IsNoisy() {
			clean++
		}
	}
	if frac := float64(clean) / float64(len(res.SelectedInventory)); frac < 0.9 {
		t.Fatalf("selected inventory only %v clean", frac)
	}
}

func TestENLDMissingLabels(t *testing.T) {
	w := newWorkload(t, 0.2, false, 16)
	set := w.incr.Clone()
	masked, err := noise.MaskMissing(set, 0.25, mat.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	if masked == 0 {
		t.Fatal("nothing masked")
	}
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(18)}).DetectFull(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PseudoLabels) != masked {
		t.Fatalf("%d pseudo labels for %d masked samples", len(res.PseudoLabels), masked)
	}
	// Pseudo labels should usually recover the true label on this easy task.
	byID := map[int]int{}
	for _, smp := range set {
		byID[smp.ID] = smp.True
	}
	correct := 0
	for id, lbl := range res.PseudoLabels {
		if lbl == byID[id] {
			correct++
		}
	}
	if acc := float64(correct) / float64(masked); acc < 0.7 {
		t.Fatalf("pseudo-label accuracy %v", acc)
	}
	// Missing samples are flagged noisy in the main partition.
	for _, smp := range set {
		if smp.Observed == dataset.Missing && !res.Noisy[smp.ID] {
			t.Fatal("missing-label sample marked clean")
		}
	}
}

func TestENLDAblationsRun(t *testing.T) {
	w := newWorkload(t, 0.3, true, 19)
	base := DefaultConfig(20)

	variants := map[string]Config{}
	v1 := base
	v1.Strategy = sampling.Random{}
	variants["enld-1"] = v1
	v2 := base
	v2.DisableMajorityVoting = true
	variants["enld-2"] = v2
	v3 := base
	v3.DisableCleanMerge = true
	variants["enld-3"] = v3
	v4 := base
	v4.Strategy = sampling.Contrastive{SameLabel: true}
	variants["enld-4"] = v4

	origin := detectF1(t, w, base)
	for name, cfg := range variants {
		det := detectF1(t, w, cfg)
		t.Logf("%s F1 = %.4f (origin %.4f)", name, det.F1, origin.F1)
		if det.F1 <= 0 {
			t.Errorf("%s produced zero F1", name)
		}
	}
}

func TestModelUpdateImprovesAccuracy(t *testing.T) {
	// Table II: after accumulating clean inventory selections, the updated
	// model's true-label accuracy on held-out data should not degrade.
	w := newWorkload(t, 0.3, false, 21)
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(22)}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	before := w.platform.TrueAccuracy(w.incr)
	if err := w.platform.ModelUpdate(res.SelectedInventory); err != nil {
		t.Fatal(err)
	}
	after := w.platform.TrueAccuracy(w.incr)
	t.Logf("true accuracy before=%v after=%v", before, after)
	if after < before-0.05 {
		t.Fatalf("model update degraded accuracy: %v -> %v", before, after)
	}
	// The halves must have swapped.
	if len(w.platform.It) == 0 || len(w.platform.Ic) == 0 {
		t.Fatal("inventory halves lost")
	}
}

func TestModelUpdateErrors(t *testing.T) {
	w := newWorkload(t, 0.1, false, 23)
	if err := w.platform.ModelUpdate(nil); err == nil {
		t.Error("empty selection accepted")
	}
	if err := w.platform.ModelUpdate(map[int]bool{-99: true}); err == nil {
		t.Error("unknown IDs accepted")
	}
}

func TestENLDChargesWork(t *testing.T) {
	w := newWorkload(t, 0.2, false, 24)
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(25)}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Meter.TrainSampleVisits == 0 || res.Meter.ForwardPasses == 0 || res.Meter.KNNQueries == 0 {
		t.Fatalf("meter incomplete: %+v", res.Meter)
	}
	if res.Process <= 0 {
		t.Fatal("process time not recorded")
	}
}

func TestPlatformSaveLoadRoundTrip(t *testing.T) {
	w := newWorkload(t, 0.2, false, 80)
	var buf bytes.Buffer
	if err := w.platform.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlatform(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The restored platform must serve detections identically.
	a, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(81)}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&ENLD{Platform: loaded, Config: DefaultConfig(81)}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Noisy) != len(b.Noisy) {
		t.Fatalf("restored platform detects differently: %d vs %d", len(a.Noisy), len(b.Noisy))
	}
	for id := range a.Noisy {
		if !b.Noisy[id] {
			t.Fatal("restored platform noisy set differs")
		}
	}
	if loaded.SetupTime != w.platform.SetupTime {
		t.Fatal("setup time not preserved")
	}
}

func TestLoadPlatformRejectsGarbage(t *testing.T) {
	if _, err := LoadPlatform(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestModelUpdateSwapsHalves(t *testing.T) {
	w := newWorkload(t, 0.2, false, 85)
	itIDs := map[int]bool{}
	for _, s := range w.platform.It {
		itIDs[s.ID] = true
	}
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(86)}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.platform.ModelUpdate(res.SelectedInventory); err != nil {
		t.Fatal(err)
	}
	// After the swap (Algorithm 4 line 2), the old I_t is the new I_c.
	for _, s := range w.platform.Ic {
		if !itIDs[s.ID] {
			t.Fatal("I_c is not the former I_t after model update")
		}
	}
	for _, s := range w.platform.It {
		if itIDs[s.ID] {
			t.Fatal("I_t still contains former I_t samples after swap")
		}
	}
}
