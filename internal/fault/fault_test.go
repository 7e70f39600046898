package fault

import (
	"errors"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
)

// echo is a trivial inner detector marking everything clean and recording
// the labels it was handed.
type echo struct {
	lastLabels []int
}

func (*echo) Name() string { return "echo" }

func (e *echo) Detect(d dataset.Set) (*detect.Result, error) {
	res := detect.NewResult()
	e.lastLabels = e.lastLabels[:0]
	for _, smp := range d {
		e.lastLabels = append(e.lastLabels, smp.Observed)
		res.MarkClean(smp.ID)
	}
	return res, nil
}

func testShard(n int) dataset.Set {
	out := make(dataset.Set, n)
	for i := range out {
		out[i] = dataset.Sample{ID: i, X: []float64{float64(i)}, Observed: i % 5, True: i % 5}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := New(&echo{}, Config{FailRate: 1.5}); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := New(&echo{}, Config{PanicRate: -0.1}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestZeroConfigPassesThrough(t *testing.T) {
	in, err := New(&echo{}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, err := in.Detect(testShard(4))
		if err != nil || len(res.Clean) != 4 {
			t.Fatalf("call %d: res=%v err=%v", i, res, err)
		}
	}
	st := in.Stats()
	if st.Calls != 50 || st.Failures+st.Panics+st.Slowdowns+st.Corruptions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailRateDeterministic(t *testing.T) {
	run := func() []bool {
		in, _ := New(&echo{}, Config{Seed: 7, FailRate: 0.3})
		outcomes := make([]bool, 100)
		for i := range outcomes {
			_, err := in.Detect(testShard(3))
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs between identically seeded runs", i)
		}
		if a[i] {
			fails++
		}
	}
	// 0.3 rate over 100 calls: demand a loose band, not an exact count.
	if fails < 10 || fails > 60 {
		t.Fatalf("%d/100 failures at rate 0.3", fails)
	}
}

func TestInjectedErrorNamesItsCall(t *testing.T) {
	in, _ := New(&echo{}, Config{Seed: 1, FailRate: 1})
	in.Detect(testShard(3))
	_, err := in.Detect(testShard(3))
	var fe *Error
	if !errors.As(err, &fe) || fe.Call != 2 {
		t.Fatalf("second injected error = %v, want a *fault.Error for call 2", err)
	}
}

func TestPanicInjection(t *testing.T) {
	in, _ := New(&echo{}, Config{Seed: 1, PanicRate: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic at rate 1")
		}
	}()
	in.Detect(testShard(3))
}

func TestLatencyInjection(t *testing.T) {
	in, _ := New(&echo{}, Config{Seed: 1, SlowRate: 1, Latency: 20 * time.Millisecond})
	start := time.Now()
	if _, err := in.Detect(testShard(3)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("call returned after %s, latency not injected", elapsed)
	}
	if st := in.Stats(); st.Slowdowns != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorruptionScramblesCopyNotOriginal(t *testing.T) {
	inner := &echo{}
	in, _ := New(inner, Config{Seed: 3, CorruptRate: 1, CorruptFrac: 1})
	shard := testShard(40)
	orig := make([]int, len(shard))
	for i, smp := range shard {
		orig[i] = smp.Observed
	}
	if _, err := in.Detect(shard); err != nil {
		t.Fatal(err)
	}
	// The original shard is untouched...
	for i, smp := range shard {
		if smp.Observed != orig[i] {
			t.Fatal("corruption mutated the caller's shard")
		}
	}
	// ...but the inner detector saw scrambled labels.
	changed := 0
	for i, lbl := range inner.lastLabels {
		if lbl != orig[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("inner detector saw no corrupted labels")
	}
	if st := in.Stats(); st.Corruptions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultPriority(t *testing.T) {
	// A call that both fails and would corrupt counts only the failure, and
	// the inner detector is never invoked.
	inner := &echo{}
	in, _ := New(inner, Config{Seed: 1, FailRate: 1, CorruptRate: 1})
	if _, err := in.Detect(testShard(3)); err == nil {
		t.Fatal("no failure at rate 1")
	}
	st := in.Stats()
	if st.Failures != 1 || st.Corruptions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(inner.lastLabels) != 0 {
		t.Fatal("inner detector ran on a failed call")
	}
}

func TestName(t *testing.T) {
	in, _ := New(&echo{}, Config{})
	if in.Name() != "fault(echo)" {
		t.Fatalf("name = %q", in.Name())
	}
}
