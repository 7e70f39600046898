package core

import (
	"sync"
	"testing"

	"enld/internal/dataset"
	"enld/internal/sampling"
)

// TestENLDParallelIdentical is the end-to-end differential test of the
// data-parallel hot paths: a full DetectFull run must produce identical
// detections, pseudo labels, inventory selections and analytic-work counts
// at worker counts 1, 2 and 8. Training, scoring, the selection passes and
// the k-NN fan-out all run through the worker pool, so any
// schedule-dependent arithmetic or RNG consumption would surface here.
func TestENLDParallelIdentical(t *testing.T) {
	w := newWorkload(t, 0.25, false, 7)
	run := func(workers int) *FullResult {
		cfg := DefaultConfig(77)
		cfg.Iterations = 3
		cfg.Workers = workers
		e := &ENLD{Platform: w.platform, Config: cfg}
		res, err := e.DetectFull(w.incr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	if len(seq.Noisy)+len(seq.Clean) != len(w.incr) {
		t.Fatal("sequential run did not partition the dataset")
	}
	for _, workers := range []int{2, 8} {
		par := run(workers)
		if !sameIDSet(par.Noisy, seq.Noisy) {
			t.Errorf("workers=%d: noisy set differs (%d vs %d)", workers, len(par.Noisy), len(seq.Noisy))
		}
		if !sameIDSet(par.Clean, seq.Clean) {
			t.Errorf("workers=%d: clean set differs", workers)
		}
		if !sameIDSet(par.SelectedInventory, seq.SelectedInventory) {
			t.Errorf("workers=%d: selected inventory differs", workers)
		}
		if len(par.PseudoLabels) != len(seq.PseudoLabels) {
			t.Errorf("workers=%d: %d pseudo labels, want %d", workers, len(par.PseudoLabels), len(seq.PseudoLabels))
		}
		for id, label := range seq.PseudoLabels {
			if par.PseudoLabels[id] != label {
				t.Errorf("workers=%d: pseudo label for %d is %d, want %d", workers, id, par.PseudoLabels[id], label)
			}
		}
		if par.Meter != seq.Meter {
			t.Errorf("workers=%d: meter %+v, want %+v", workers, par.Meter, seq.Meter)
		}
		if len(par.Snapshots) != len(seq.Snapshots) {
			t.Fatalf("workers=%d: %d snapshots, want %d", workers, len(par.Snapshots), len(seq.Snapshots))
		}
		for i, snap := range seq.Snapshots {
			got := par.Snapshots[i]
			if got.AmbiguousCount != snap.AmbiguousCount || got.ContrastiveSize != snap.ContrastiveSize {
				t.Errorf("workers=%d: snapshot %d is {A=%d C=%d}, want {A=%d C=%d}", workers, i,
					got.AmbiguousCount, got.ContrastiveSize, snap.AmbiguousCount, snap.ContrastiveSize)
			}
			if !sameIDSet(got.Noisy, snap.Noisy) {
				t.Errorf("workers=%d: snapshot %d noisy set differs", workers, i)
			}
		}
	}
}

// TestENLDConcurrentDetectShared is the sharing half of the workspace
// contract: the inference workspace, score buffers and sampling request live
// and die inside one Detect call, so 8 goroutines calling Detect on ONE ENLD
// over ONE Platform must race on nothing (run under -race -count=10) and
// return the noisy set a lone call returns.
func TestENLDConcurrentDetectShared(t *testing.T) {
	w := newWorkload(t, 0.25, false, 17)
	cfg := DefaultConfig(78)
	cfg.Iterations = 2
	cfg.Workers = 2
	e := &ENLD{Platform: w.platform, Config: cfg}
	want, err := e.Detect(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]map[int]bool, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := e.Detect(w.incr)
			if err != nil {
				errs[g] = err
				return
			}
			results[g] = res.Noisy
		}(g)
	}
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if !sameIDSet(results[g], want.Noisy) {
			t.Errorf("caller %d: noisy set differs from the lone call (%d vs %d)", g, len(results[g]), len(want.Noisy))
		}
	}
}

// keepingStrategy wraps the paper's strategy and keeps every set it returned
// next to a copy taken at return time.
type keepingStrategy struct {
	returned, copies []dataset.Set
}

func (k *keepingStrategy) Name() string { return "keeping" }

func (k *keepingStrategy) Select(r *sampling.Request) (dataset.Set, error) {
	c, err := sampling.Contrastive{}.Select(r)
	k.returned = append(k.returned, c)
	k.copies = append(k.copies, append(dataset.Set(nil), c...))
	return c, err
}

// TestResampleLeavesReturnedSetsAlone is the strategy-facing half of the
// buffer-reuse contract: the run refills its request, its score buffers and
// its contrastive set in place on every resample, and merges clean samples
// into C — none of which may write into a set a strategy returned earlier.
// Results must also equal the default strategy's, so the wrapper saw the
// run's real requests.
func TestResampleLeavesReturnedSetsAlone(t *testing.T) {
	w := newWorkload(t, 0.25, false, 27)
	cfg := DefaultConfig(79)
	cfg.Iterations = 4
	want, err := (&ENLD{Platform: w.platform, Config: cfg}).Detect(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	keep := &keepingStrategy{}
	cfg.Strategy = keep
	got, err := (&ENLD{Platform: w.platform, Config: cfg}).Detect(w.incr)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDSet(got.Noisy, want.Noisy) {
		t.Fatal("wrapped strategy changed the detection")
	}
	if len(keep.returned) < 2 {
		t.Fatalf("only %d Select calls; the test needs a second resample", len(keep.returned))
	}
	for call, set := range keep.returned {
		if len(set) != len(keep.copies[call]) {
			t.Fatalf("Select call %d: returned set changed length", call)
		}
		for i, smp := range keep.copies[call] {
			now := set[i]
			if now.ID != smp.ID || now.Observed != smp.Observed || now.True != smp.True || &now.X[0] != &smp.X[0] {
				t.Fatalf("Select call %d: sample %d of the returned set was overwritten by a later resample", call, i)
			}
		}
	}
}

// sameIDSet reports whether two ID sets are equal.
func sameIDSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}
