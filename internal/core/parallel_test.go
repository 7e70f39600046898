package core

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync"
	"testing"

	"enld/internal/dataset"
	"enld/internal/sampling"
)

// TestENLDParallelIdentical is the end-to-end determinism test: two
// default-config DetectFull runs on one platform must produce identical
// detections, pseudo labels, inventory selections, snapshots and
// analytic-work counts, and the output digests are pinned to the values the
// intra-task worker pool produced at 1 worker and at all cores (it was equal
// at every count), so deleting the pool moved no bit.
func TestENLDParallelIdentical(t *testing.T) {
	w := newWorkload(t, 0.25, false, 7)
	run := func() *FullResult {
		res, err := (&ENLD{Platform: w.platform, Config: DefaultConfig(77)}).DetectFull(w.incr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if len(first.Noisy)+len(first.Clean) != len(w.incr) {
		t.Fatal("the run did not partition the dataset")
	}
	const wantNoisy, wantAll uint64 = 0xa5a5dbf09a1f6638, 0x76c7a4c6afb4a435
	if got := noisyHash(first); got != wantNoisy {
		t.Errorf("noisy-set hash %#x, want %#x", got, wantNoisy)
	}
	if got := resultHash(first); got != wantAll {
		t.Errorf("output hash %#x, want %#x", got, wantAll)
	}
	again := run()
	if !sameIDSet(again.Clean, first.Clean) {
		t.Error("rerun: clean set differs")
	}
	if again.Meter != first.Meter {
		t.Errorf("rerun: meter %+v, want %+v", again.Meter, first.Meter)
	}
	if got := resultHash(again); got != wantAll {
		t.Errorf("rerun: output hash %#x, want %#x", got, wantAll)
	}
}

// noisyHash is an FNV-1a digest of the sorted noisy-set IDs.
func noisyHash(res *FullResult) uint64 {
	ids := make([]int, 0, len(res.Noisy))
	for id := range res.Noisy {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := fnv.New64a()
	for _, id := range ids {
		binary.Write(h, binary.LittleEndian, int64(id))
	}
	return h.Sum64()
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
