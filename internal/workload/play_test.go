package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/lake"
	"enld/internal/obs"
)

// lake.Service satisfies Submitter; cluster.Coordinator is pinned by
// internal/stack's Stack.Submitter, since workload must not import the
// cluster package.
var _ Submitter = (*lake.Service)(nil)

// stubDetector labels every sample clean instantly — replay mechanics under
// test, not detection quality.
type stubDetector struct{}

func (stubDetector) Name() string { return "stub" }

func (stubDetector) Detect(data dataset.Set) (*detect.Result, error) {
	res := detect.NewResult()
	for _, s := range data {
		res.MarkClean(s.ID)
	}
	return res, nil
}

// testPool builds a tiny clean pool with `classes` labels.
func testPool(n, classes int) dataset.Set {
	pool := make(dataset.Set, n)
	for i := range pool {
		pool[i] = dataset.Sample{ID: i, X: []float64{float64(i)}, Observed: i % classes, True: i % classes}
	}
	return pool
}

func TestMaterializeDeterministic(t *testing.T) {
	tr, err := GenTrace(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	pool := testPool(200, 4)
	a, err := Materialize(tr, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Materialize(tr, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(tr.Catalog) {
		t.Fatalf("materialized %d entries, want %d", len(a), len(tr.Catalog))
	}
	for j := range a {
		if len(a[j]) != tr.Catalog[j].Samples {
			t.Fatalf("entry %d has %d samples, want %d", j, len(a[j]), tr.Catalog[j].Samples)
		}
		for i := range a[j] {
			if sampleKey(a[j][i]) != sampleKey(b[j][i]) {
				t.Fatalf("entry %d sample %d differs between materializations", j, i)
			}
		}
	}
	// A noisy entry must actually carry flipped labels at roughly its rate,
	// and materialization must never mutate the pool.
	for j, meta := range tr.Catalog {
		flipped := 0
		for _, s := range a[j] {
			if s.Observed != s.True {
				flipped++
			}
		}
		if meta.NoiseRate == 0 && flipped != 0 {
			t.Errorf("clean entry %d has %d flipped labels", j, flipped)
		}
		if meta.NoiseRate >= 0.2 && flipped == 0 {
			t.Errorf("entry %d (rate %.2f) has no flipped labels in %d samples", j, meta.NoiseRate, len(a[j]))
		}
	}
	for i, s := range pool {
		if s.Observed != i%4 || s.True != i%4 {
			t.Fatalf("pool sample %d mutated by materialization", i)
		}
	}
}

func sampleKey(s dataset.Sample) [3]int { return [3]int{s.ID, s.Observed, s.True} }

// TestPlaySummarize replays a short trace in-process at high speed and
// checks the full measurement loop: reports, generator counters, and the
// scrape-derived ScenarioResult with an SLO verdict.
func TestPlaySummarize(t *testing.T) {
	spec := testSpec()
	spec.Phases = []Phase{{Name: "steady", DurationSeconds: 2, Rate: 20}}
	spec.Arrivals = ArrivalsUniform
	spec.SLO = SLO{
		MaxP99TaskSeconds: 5,
		MaxDeadLetters:    intp(0),
		MinCompletedRatio: 1.0,
	}
	tr, err := GenTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := Materialize(tr, testPool(200, 4), 4)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := lake.NewService(stubDetector{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.SetObs(reg)

	res, err := Play(context.Background(), svc, tr, catalog, PlayOptions{Speed: 50, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != len(tr.Events) {
		t.Fatalf("offered %d of %d events", res.Offered, len(tr.Events))
	}
	if len(res.Reports) != len(tr.Events) {
		t.Fatalf("%d reports for %d events", len(res.Reports), len(tr.Events))
	}
	for i, rep := range res.Reports {
		if rep.TaskID != i {
			t.Fatalf("report %d has task ID %d (not sorted)", i, rep.TaskID)
		}
		if rep.Err != nil {
			t.Fatalf("task %d failed: %v", i, rep.Err)
		}
	}

	sum := Summarize(spec, res)
	if sum.Completed != len(tr.Events) || sum.Outcomes["ok"] != len(tr.Events) {
		t.Fatalf("summary completed=%d ok=%d, want %d", sum.Completed, sum.Outcomes["ok"], len(tr.Events))
	}
	if sum.Outcomes["dead_letter"] != 0 || sum.Outcomes["degraded"] != 0 {
		t.Fatalf("unexpected non-ok outcomes: %v", sum.Outcomes)
	}
	if sum.TaskSeconds.Count != uint64(len(tr.Events)) || sum.QueuedSeconds.Count != uint64(len(tr.Events)) {
		t.Fatalf("latency counts task=%d queued=%d, want %d", sum.TaskSeconds.Count, sum.QueuedSeconds.Count, len(tr.Events))
	}
	if sum.TaskSeconds.P99 <= 0 || sum.TaskSeconds.P99 > 1 {
		t.Fatalf("task p99 = %v, implausible for a stub detector", sum.TaskSeconds.P99)
	}
	if sum.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", sum.ThroughputRPS)
	}
	if !sum.Pass || len(sum.Violations) != 0 {
		t.Fatalf("SLO failed: %v", sum.Violations)
	}

	// The generator's own metrics landed in the same registry.
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nenld_load_offered_total %d\n", len(tr.Events)); !strings.Contains(expo.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, expo.String())
	}
}

// TestPlayCancel: cancelling mid-replay stops submission but still returns a
// coherent result.
func TestPlayCancel(t *testing.T) {
	spec := testSpec()
	spec.Phases = []Phase{{Name: "steady", DurationSeconds: 60, Rate: 10}}
	spec.Arrivals = ArrivalsUniform
	tr, err := GenTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := Materialize(tr, testPool(200, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := lake.NewService(stubDetector{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Play(ctx, svc, tr, catalog, PlayOptions{Speed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered >= len(tr.Events) {
		t.Fatalf("cancelled replay offered all %d events", res.Offered)
	}
	if len(res.Reports) > res.Offered {
		t.Fatalf("%d reports from %d offered", len(res.Reports), res.Offered)
	}
}
