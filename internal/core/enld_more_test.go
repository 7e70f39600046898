package core

import (
	"reflect"
	"testing"

	"enld/internal/dataset"
	"enld/internal/metrics"
	"enld/internal/sampling"
)

func TestENLDSnapshotCountsMatchConfig(t *testing.T) {
	w := newWorkload(t, 0.2, false, 40)
	for _, iters := range []int{1, 3} {
		cfg := DefaultConfig(41)
		cfg.Iterations = iters
		res, err := (&ENLD{Platform: w.platform, Config: cfg}).DetectFull(w.incr)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Snapshots) != iters {
			t.Fatalf("iters=%d: %d snapshots", iters, len(res.Snapshots))
		}
	}
}

func TestENLDWarmupDisabled(t *testing.T) {
	// WarmupEpochs = 0 must still work (Algorithm 3 without line 4).
	w := newWorkload(t, 0.2, false, 42)
	cfg := DefaultConfig(43)
	cfg.WarmupEpochs = 0
	res, err := (&ENLD{Platform: w.platform, Config: cfg}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Noisy)+len(res.Clean) != len(w.incr) {
		t.Fatal("partition incomplete without warmup")
	}
}

func TestENLDCleanMergeGrowsContrastiveSet(t *testing.T) {
	// With the merge enabled, |C| in later iterations includes the selected
	// clean set; disabling it (ENLD-3) must shrink the recorded sizes.
	w := newWorkload(t, 0.2, false, 44)
	base := DefaultConfig(45)
	with, err := (&ENLD{Platform: w.platform, Config: base}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	noMerge := base
	noMerge.DisableCleanMerge = true
	without, err := (&ENLD{Platform: w.platform, Config: noMerge}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	last := len(with.Snapshots) - 1
	if with.Snapshots[last].ContrastiveSize <= without.Snapshots[last].ContrastiveSize {
		t.Fatalf("merge did not grow C: with=%d without=%d",
			with.Snapshots[last].ContrastiveSize, without.Snapshots[last].ContrastiveSize)
	}
}

func TestENLDDisableMajorityVotingMoreAggressive(t *testing.T) {
	// ENLD-2 marks clean on any single agreement, so its clean set can only
	// be a superset of the majority-voted one under identical seeds.
	w := newWorkload(t, 0.3, false, 46)
	base := DefaultConfig(47)
	strict, err := (&ENLD{Platform: w.platform, Config: base}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	loose := base
	loose.DisableMajorityVoting = true
	aggressive, err := (&ENLD{Platform: w.platform, Config: loose}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggressive.Clean) < len(strict.Clean) {
		t.Fatalf("ENLD-2 selected fewer clean (%d) than majority voting (%d)",
			len(aggressive.Clean), len(strict.Clean))
	}
}

func TestENLDAllStrategiesProduceFullPartition(t *testing.T) {
	w := newWorkload(t, 0.2, false, 48)
	for _, strat := range sampling.All() {
		cfg := DefaultConfig(49)
		cfg.Iterations = 2
		cfg.Strategy = strat
		res, err := (&ENLD{Platform: w.platform, Config: cfg}).DetectFull(w.incr)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		for _, smp := range w.incr {
			if res.Noisy[smp.ID] == res.Clean[smp.ID] {
				t.Fatalf("%s: sample %d not partitioned", strat.Name(), smp.ID)
			}
		}
	}
}

func TestENLDHandlesAllMissingLabels(t *testing.T) {
	// Degenerate arrival: every label missing. Detection must not fail; all
	// samples get pseudo labels and are flagged noisy.
	w := newWorkload(t, 0.1, false, 50)
	set := w.incr.Clone()
	for i := range set {
		set[i].Observed = dataset.Missing
	}
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(51)}).DetectFull(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PseudoLabels) != len(set) {
		t.Fatalf("%d pseudo labels for %d samples", len(res.PseudoLabels), len(set))
	}
	for _, smp := range set {
		if !res.Noisy[smp.ID] {
			t.Fatal("unlabeled sample not flagged")
		}
	}
}

func TestENLDHandlesCleanDataset(t *testing.T) {
	// A perfectly clean arrival: nearly everything should be kept.
	w := newWorkload(t, 0.0, false, 52)
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(53)}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(len(res.Noisy)) / float64(len(w.incr)); frac > 0.15 {
		t.Fatalf("flagged %v of a clean dataset", frac)
	}
}

func TestENLDSingleSampleDataset(t *testing.T) {
	w := newWorkload(t, 0.2, false, 54)
	single := w.incr[:1].Clone()
	res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(55)}).DetectFull(single)
	if err != nil {
		t.Fatal(err)
	}
	if res.Noisy[single[0].ID] == res.Clean[single[0].ID] {
		t.Fatal("single sample not partitioned")
	}
}

func TestENLDAutoStop(t *testing.T) {
	w := newWorkload(t, 0.1, false, 90)
	cfg := DefaultConfig(91)
	cfg.Iterations = 12
	cfg.AutoStop = true
	res, err := (&ENLD{Platform: w.platform, Config: cfg}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	// On an easy low-noise task the clean set stabilizes well before 12
	// iterations; auto-stop must cut the loop short.
	if len(res.Snapshots) >= 12 {
		t.Fatalf("auto-stop did not trigger: %d iterations", len(res.Snapshots))
	}
	// The loop decides from the clean-set size alone; it must stop exactly
	// where comparing consecutive noisy sets would: at the first iteration
	// whose noisy set equals both of its predecessors'.
	stable, stopAt := 0, -1
	for i := 1; i < len(res.Snapshots) && stopAt < 0; i++ {
		if sameIDSet(res.Snapshots[i].Noisy, res.Snapshots[i-1].Noisy) {
			stable++
		} else {
			stable = 0
		}
		if stable >= 2 {
			stopAt = i
		}
	}
	if stopAt != len(res.Snapshots)-1 {
		t.Fatalf("stopped after %d iterations, the noisy-set rule stops after %d", len(res.Snapshots), stopAt+1)
	}
	// Detect skips the snapshots entirely and must stop at the same point.
	plain, err := (&ENLD{Platform: w.platform, Config: cfg}).Detect(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDSet(plain.Noisy, res.Noisy) || plain.Meter != res.Meter {
		t.Fatal("Detect and DetectFull disagree under auto-stop")
	}
	// Quality must match the full run within tolerance.
	full := cfg
	full.AutoStop = false
	ref, err := (&ENLD{Platform: w.platform, Config: full}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	got := metrics.EvaluateDetection(w.incr, res.Noisy).F1
	want := metrics.EvaluateDetection(w.incr, ref.Noisy).F1
	if got < want-0.05 {
		t.Fatalf("auto-stop F1 %v well below full F1 %v", got, want)
	}
}

// TestENLDAutoStopEqualsFixedIterations: auto-stop changes only where the
// loop ends, and consumes no randomness, so a run it stops after n
// iterations equals a fixed Iterations = n run field for field — S_c
// included, which must select on the iterations that ran — except for the
// stop reason each reports.
func TestENLDAutoStopEqualsFixedIterations(t *testing.T) {
	w := newWorkload(t, 0.1, false, 90)
	cfg := DefaultConfig(91)
	cfg.Iterations = 12
	cfg.AutoStop = true
	stopped, err := (&ENLD{Platform: w.platform, Config: cfg}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	n := stopped.Iterations
	if n >= cfg.Iterations || n != len(stopped.Snapshots) {
		t.Fatalf("auto-stop ran %d iterations with %d snapshots, want fewer than %d", n, len(stopped.Snapshots), cfg.Iterations)
	}
	if stopped.Stop != StopStable {
		t.Fatalf("auto-stop after %d iterations reports stop reason %v, want %v", n, stopped.Stop, StopStable)
	}
	if len(stopped.SelectedInventory) == 0 {
		t.Fatal("auto-stop selected no inventory samples (S_c empty)")
	}
	t.Logf("auto-stop after %d of %d iterations, |S_c| = %d", n, cfg.Iterations, len(stopped.SelectedInventory))
	cfg.Iterations, cfg.AutoStop = n, false
	fixed, err := (&ENLD{Platform: w.platform, Config: cfg}).DetectFull(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Stop != StopFixed {
		t.Fatalf("fixed t=%d reports stop reason %v, want %v", n, fixed.Stop, StopFixed)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Noisy", stopped.Noisy, fixed.Noisy},
		{"Clean", stopped.Clean, fixed.Clean},
		{"Meter", stopped.Meter, fixed.Meter},
		{"Iterations", stopped.Iterations, fixed.Iterations},
		{"SelectedInventory", stopped.SelectedInventory, fixed.SelectedInventory},
		{"PseudoLabels", stopped.PseudoLabels, fixed.PseudoLabels},
		{"Snapshots", stopped.Snapshots, fixed.Snapshots},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s differs: auto-stop after %d iterations %v, fixed t=%d %v", f.name, n, f.got, n, f.want)
		}
	}
}
