package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunConcurrentMatchesSequential runs the same experiment set through
// RunConcurrent at 1 and 2 workers and through sequential Run, asserting the
// structured results agree and the rendered output stays in input order.
// (Byte-for-byte output comparison is impossible — renders include wall-clock
// process times — so the assertion is on the deterministic metrics.)
func TestRunConcurrentMatchesSequential(t *testing.T) {
	ids := []string{"fig3", "fig4"}
	// Leaner than quickCfg: this test runs each experiment three times
	// (sequential reference plus two concurrent worker counts).
	cfg := Config{
		Seed:           5,
		DataScale:      0.3,
		Shards:         2,
		Etas:           []float64{0.2},
		PlatformEpochs: 8,
		Iterations:     2,
	}

	seqFig3, err := Run("fig3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqFig4, err := Run("fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2} {
		var buf bytes.Buffer
		ccfg := cfg
		ccfg.Out = &buf
		results, err := RunConcurrent(ids, ccfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 2 {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		f3, ok := results[0].(*Fig3Result)
		if !ok {
			t.Fatalf("workers=%d: result 0 is %T", workers, results[0])
		}
		f4, ok := results[1].(*FigureResult)
		if !ok {
			t.Fatalf("workers=%d: result 1 is %T", workers, results[1])
		}
		want3 := seqFig3.(*Fig3Result)
		if len(f3.Rows) != len(want3.Rows) {
			t.Fatalf("workers=%d: fig3 has %d rows, want %d", workers, len(f3.Rows), len(want3.Rows))
		}
		for i, row := range want3.Rows {
			if f3.Rows[i].Loss.Mean != row.Loss.Mean {
				t.Errorf("workers=%d: fig3 row %d loss %.10f, want %.10f",
					workers, i, f3.Rows[i].Loss.Mean, row.Loss.Mean)
			}
		}
		want4 := seqFig4.(*FigureResult)
		for _, row := range want4.Rows {
			if got := f4.Score(row.Method, row.Eta); got != row.Agg.F1.Mean {
				t.Errorf("workers=%d: fig4 %s@%.1f F1 %.10f, want %.10f",
					workers, row.Method, row.Eta, got, row.Agg.F1.Mean)
			}
		}
		// Rendered output must appear in input order even when fig4 (the
		// slower experiment) is claimed first.
		out := buf.String()
		i3, i4 := strings.Index(out, "fig3"), strings.Index(out, "fig4")
		if i3 < 0 || i4 < 0 || i3 > i4 {
			t.Errorf("workers=%d: output out of order (fig3 at %d, fig4 at %d)", workers, i3, i4)
		}
	}
}

// TestRunConcurrentUnknownID pins the fail-fast path: an unknown ID is
// rejected before any experiment starts.
func TestRunConcurrentUnknownID(t *testing.T) {
	if _, err := RunConcurrent([]string{"fig4", "nope"}, quickCfg(6), 2); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestRunConcurrentPanicBecomesError runs stub experiments at workers = 0
// (all cores): the panicking one comes back as its own error, and every
// experiment's output, the panicking one's included, is still flushed in
// input order.
func TestRunConcurrentPanicBecomesError(t *testing.T) {
	ids := []string{"stub-a", "stub-boom", "stub-c", "stub-d", "stub-e"}
	for _, id := range ids {
		name := strings.TrimPrefix(id, "stub-")
		registry[id] = func(c Config) (interface{}, error) {
			fmt.Fprintf(c.Out, "%s;", name)
			if name == "boom" {
				panic("boom")
			}
			return name, nil
		}
	}
	t.Cleanup(func() {
		for _, id := range ids {
			delete(registry, id)
		}
	})
	var buf bytes.Buffer
	results, err := RunConcurrent(ids, Config{Out: &buf}, 0)
	if err == nil || !strings.HasPrefix(err.Error(), "experiments: stub-boom: panic: boom") {
		t.Fatalf("err = %v, want stub-boom's panic", err)
	}
	if got := buf.String(); got != "a;boom;c;d;e;" {
		t.Fatalf("flushed output %q, want every experiment in input order", got)
	}
	for i, want := range []interface{}{"a", nil, "c", "d", "e"} {
		if results[i] != want {
			t.Fatalf("result %d = %v, want %v", i, results[i], want)
		}
	}
}

// TestRunConcurrentDefaultsToGOMAXPROCS: workers <= 0 runs GOMAXPROCS
// experiments at once and a positive count runs exactly that many. Each stub
// waits until the expected number has started, so too few workers time out
// and too many show up in the peak.
func TestRunConcurrentDefaultsToGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, tc := range []struct{ workers, want int }{{0, 3}, {-3, 3}, {2, 2}} {
		ids := []string{"stub-w0", "stub-w1", "stub-w2", "stub-w3", "stub-w4"}
		var active, peak, entered atomic.Int64
		release := make(chan struct{})
		for _, id := range ids {
			registry[id] = func(Config) (interface{}, error) {
				n := active.Add(1)
				defer active.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if entered.Add(1) == int64(tc.want) {
					close(release)
				}
				select {
				case <-release:
					return nil, nil
				case <-time.After(5 * time.Second):
					return nil, fmt.Errorf("only %d experiments started", entered.Load())
				}
			}
		}
		_, err := RunConcurrent(ids, Config{}, tc.workers)
		for _, id := range ids {
			delete(registry, id)
		}
		if err != nil {
			t.Fatalf("workers=%d: %v", tc.workers, err)
		}
		if got := peak.Load(); got != int64(tc.want) {
			t.Fatalf("workers=%d: %d experiments ran at once, want %d", tc.workers, got, tc.want)
		}
	}
}
