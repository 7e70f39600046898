package parallel

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachChunkCoversEveryIndexOnce sweeps awkward sizes — empty, single
// element, fewer elements than workers, non-divisible remainders — across
// worker counts and asserts every index in [0, n) is visited exactly once.
func TestForEachChunkCoversEveryIndexOnce(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 100, 1023}
	chunkSizes := []int{1, 2, 3, 7, 8, 16, 1000}
	workerCounts := []int{1, 2, 3, 4, 8}
	for _, n := range sizes {
		for _, cs := range chunkSizes {
			for _, w := range workerCounts {
				visits := make([]int32, n)
				New(w).ForEachChunk(n, cs, func(worker, lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d cs=%d w=%d: bad chunk [%d,%d)", n, cs, w, lo, hi)
						return
					}
					if lo%cs != 0 {
						t.Errorf("n=%d cs=%d w=%d: chunk start %d not aligned", n, cs, w, lo)
					}
					if hi-lo > cs {
						t.Errorf("n=%d cs=%d w=%d: chunk [%d,%d) larger than chunk size", n, cs, w, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d cs=%d w=%d: index %d visited %d times", n, cs, w, i, v)
					}
				}
			}
		}
	}
}

// TestForEachChunkPartitionIndependentOfWorkers asserts the determinism
// contract: the set of chunk boundaries must be a function of (n, chunkSize)
// only, identical at every worker count.
func TestForEachChunkPartitionIndependentOfWorkers(t *testing.T) {
	type span struct{ lo, hi int }
	partition := func(workers, n, cs int) []span {
		var mu sync.Mutex
		var spans []span
		New(workers).ForEachChunk(n, cs, func(_, lo, hi int) {
			mu.Lock()
			spans = append(spans, span{lo, hi})
			mu.Unlock()
		})
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		return spans
	}
	for _, n := range []int{1, 5, 16, 33, 100} {
		for _, cs := range []int{1, 4, 8, 50} {
			ref := partition(1, n, cs)
			for _, w := range []int{2, 3, 8} {
				got := partition(w, n, cs)
				if len(got) != len(ref) {
					t.Fatalf("n=%d cs=%d: %d chunks at w=%d, %d at w=1", n, cs, len(got), w, len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("n=%d cs=%d w=%d: chunk %d = %v, want %v", n, cs, w, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got := New(0).Workers(); got != DefaultWorkers() {
		t.Fatalf("New(0).Workers() = %d, want %d", got, DefaultWorkers())
	}
	if got := New(-3).Workers(); got != DefaultWorkers() {
		t.Fatalf("New(-3).Workers() = %d, want %d", got, DefaultWorkers())
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
}

func TestRunInvokesEveryWorkerID(t *testing.T) {
	for _, w := range []int{1, 2, 7} {
		seen := make([]int32, w)
		New(w).Run(func(id int) { atomic.AddInt32(&seen[id], 1) })
		for id, v := range seen {
			if v != 1 {
				t.Fatalf("w=%d: worker %d ran %d times", w, id, v)
			}
		}
	}
}

// TestWorkerPanicPropagates asserts a panicking chunk surfaces to the caller
// as a *WorkerPanic carrying the original value, with the pool fully drained
// (no goroutine leak, remaining chunks still complete or are abandoned
// cleanly).
func TestWorkerPanicPropagates(t *testing.T) {
	for _, w := range []int{2, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("w=%d: panic did not propagate", w)
				}
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("w=%d: recovered %T, want *WorkerPanic", w, r)
				}
				if wp.Value != "boom" {
					t.Fatalf("w=%d: panic value %v", w, wp.Value)
				}
				if len(wp.Stack) == 0 {
					t.Fatalf("w=%d: no stack captured", w)
				}
				if wp.Error() == "" {
					t.Fatalf("w=%d: empty Error()", w)
				}
			}()
			New(w).ForEachChunk(64, 4, func(_, lo, hi int) {
				if lo == 32 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForEachChunkRejectsBadChunkSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("chunkSize 0 accepted")
		}
	}()
	New(2).ForEachChunk(10, 0, func(_, _, _ int) {})
}

// TestForEachChunkSequentialOrder pins the single-worker guarantee chunks
// run in increasing index order, which the trainer's reduction relies on.
func TestForEachChunkSequentialOrder(t *testing.T) {
	var los []int
	New(1).ForEachChunk(50, 8, func(_, lo, hi int) { los = append(los, lo) })
	for i := 1; i < len(los); i++ {
		if los[i] <= los[i-1] {
			t.Fatalf("chunks out of order at single worker: %v", los)
		}
	}
}
