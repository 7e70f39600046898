package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("test_ops_total", "ops"); again != c {
		t.Fatal("re-registration returned a different handle")
	}
	labelled := r.Counter("test_ops_total", "ops", Label{Key: "kind", Value: "a"})
	if labelled == c {
		t.Fatal("labelled series aliased the unlabelled one")
	}
	// Label order must not split the series.
	ab := r.Counter("test_multi_total", "m", Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	ba := r.Counter("test_multi_total", "m", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	if ab != ba {
		t.Fatal("label registration order split the series")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_depth", "depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Fatal("gauge lost +Inf")
	}
}

func TestHistogramBasics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "durations", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %v, want 106", got)
	}
	// le semantics: v == bound lands in that bound's bucket.
	want := []uint64{2, 1, 1, 1} // ≤1: {0.5, 1}; ≤2: {1.5}; ≤4: {3}; +Inf: {100}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "x")
	mustPanic(t, "type mismatch", func() { r.Gauge("test_x_total", "x") })
	mustPanic(t, "help mismatch", func() { r.Counter("test_x_total", "different") })
	r.Histogram("test_h", "h", []float64{1, 2})
	mustPanic(t, "bucket mismatch", func() { r.Histogram("test_h", "h", []float64{1, 3}) })
	mustPanic(t, "bad metric name", func() { r.Counter("bad name", "x") })
	mustPanic(t, "bad label name", func() { r.Counter("test_y_total", "y", Label{Key: "1bad", Value: "v"}) })
	mustPanic(t, "duplicate label", func() {
		r.Counter("test_z_total", "z", Label{Key: "a", Value: "1"}, Label{Key: "a", Value: "2"})
	})
	mustPanic(t, "unsorted buckets", func() { r.Histogram("test_h2", "h", []float64{2, 1}) })
	mustPanic(t, "no buckets", func() { r.Histogram("test_h3", "h", nil) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestNilRegistryNoop pins the injectability contract: a nil registry hands
// out nil handles and every operation — metrics and spans alike — is a
// no-op.
func TestNilRegistryNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "d")
	h := r.Histogram("test_seconds", "s", DefBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles accumulated state")
	}
	sp := r.StartSpan("x")
	sp.End()
	r.SetSpanLedger(nil)
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
}

// TestNilPathAllocationFree pins the bench-gate claim: the disabled
// observability path allocates nothing.
func TestNilPathAllocationFree(t *testing.T) {
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		g.Add(1)
		h.Observe(0.5)
		sp := r.StartSpan("x")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil path allocated %v objects per op", allocs)
	}
}

// TestConcurrentExactness drives every metric kind from many goroutines and
// checks the totals are exact — the atomic hot paths drop nothing — while
// snapshots taken mid-run stay internally consistent (+Inf bucket = count).
// Run with -race this also proves the paths are data-race-free.
func TestConcurrentExactness(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_level", "level")
	h := r.Histogram("test_seconds", "s", []float64{1, 10})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range r.Snapshot()["test_seconds"].Series {
				if inf := s.Buckets[len(s.Buckets)-1].Count; inf != s.Count {
					t.Errorf("snapshot +Inf bucket %d != count %d", inf, s.Count)
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
				sp := r.StartSpan("concurrent")
				sp.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snapped
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	spanH := r.Histogram(SpanFamily, spanFamilyHelp, DefBuckets, Label{Key: "span", Value: "concurrent"})
	if got := spanH.Count(); got != workers*perWorker {
		t.Fatalf("span histogram count = %d, want %d", got, workers*perWorker)
	}
}
