package lake

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/fault"
	"enld/internal/obs"
)

// funcDetector runs fn on every Detect call and returns an empty result.
type funcDetector func()

func (funcDetector) Name() string { return "func" }

func (f funcDetector) Detect(dataset.Set) (*detect.Result, error) {
	f()
	return detect.NewResult(), nil
}

func lakeCounter(reg *obs.Registry, outcome string) *obs.Counter {
	return reg.Counter("enld_lake_tasks_total",
		"Completed lake detection tasks, by outcome.",
		obs.Label{Key: "outcome", Value: outcome})
}

// TestServiceObsOutcomes: ok outcomes land in the right counter series, the
// other outcome series are registered at zero, and the latency histograms
// see every task (degraded/dead-letter counts are exercised below).
func TestServiceObsOutcomes(t *testing.T) {
	svc, err := NewServiceWithPolicy(flagOdd{}, 2, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.SetObs(reg)
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(3, 4), 0))
	if len(reports) != 3 {
		t.Fatalf("%d reports", len(reports))
	}

	if got := lakeCounter(reg, "ok").Value(); got != 3 {
		t.Fatalf("ok counter = %d, want 3", got)
	}
	for _, outcome := range []string{"degraded", "dead_letter"} {
		if got := lakeCounter(reg, outcome).Value(); got != 0 {
			t.Fatalf("%s counter = %d, want 0 (pre-registered at zero)", outcome, got)
		}
	}
	if got := svc.obs.taskSeconds.Count(); got != 3 {
		t.Fatalf("task histogram count = %d, want 3", got)
	}
	if got := svc.obs.queuedSeconds.Count(); got != 3 {
		t.Fatalf("queued histogram count = %d, want 3", got)
	}
	if got := inflightGauge(reg).Value(); got != 0 {
		t.Fatalf("inflight gauge = %v after drain, want 0", got)
	}
}

// TestMetricsMatchReportsProcessTime: enld_lake_task_seconds, the /statusz
// mean and the report stream agree on processing time under composed
// faults. Half the primary attempts fail over to the fallback and half are
// slowed, so a degraded task's time includes its failed primary attempt and
// a slowed task's its injected latency; all three views must count both.
func TestMetricsMatchReportsProcessTime(t *testing.T) {
	inj, err := fault.New(flagOdd{delay: time.Millisecond}, fault.Config{
		Seed:     3,
		FailRate: 0.5,
		SlowRate: 0.5,
		Latency:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewServiceWithPolicy(inj, 2, Policy{Fallback: flagOdd{delay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetObs(obs.NewRegistry())
	tracker := NewStatusTracker()
	svc.OnReport = tracker.Record
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(40, 4), 0))

	var sum time.Duration
	degraded := 0
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
		if rep.Degraded {
			degraded++
		}
		sum += rep.Process
	}
	if stats := inj.Stats(); degraded == 0 || stats.Slowdowns == 0 {
		t.Fatalf("%d degraded, %d slowed: the faults did not fire", degraded, stats.Slowdowns)
	}
	n := len(reports)
	if got := svc.obs.taskSeconds.Count(); got != uint64(n) {
		t.Fatalf("enld_lake_task_seconds count = %d, %d reports", got, n)
	}
	if got := svc.obs.taskSeconds.Sum(); math.Abs(got-sum.Seconds()) > 1e-9 {
		t.Fatalf("enld_lake_task_seconds sum = %.9fs, Σ Report.Process = %.9fs", got, sum.Seconds())
	}
	st := tracker.Snapshot()
	if st.TasksProcessed != n {
		t.Fatalf("/statusz tasks_processed = %d, %d reports", st.TasksProcessed, n)
	}
	if got := st.MeanProcessSec * float64(n); math.Abs(got-sum.Seconds()) > 1e-9 {
		t.Fatalf("/statusz mean_process_sec × n = %.9fs, Σ Report.Process = %.9fs", got, sum.Seconds())
	}
}

func inflightGauge(reg *obs.Registry) *obs.Gauge {
	return reg.Gauge("enld_lake_inflight_tasks",
		"Lake tasks currently being processed by a worker; equals the worker count while the service is saturated.")
}

// TestServiceObsInflight: the in-flight gauge rises while a worker holds a
// task and returns to zero once the run drains.
func TestServiceObsInflight(t *testing.T) {
	release := make(chan struct{})
	observed := make(chan float64, 1)
	reg := obs.NewRegistry()
	det := funcDetector(func() { // blocks until released, sampling the gauge
		observed <- inflightGauge(reg).Value()
		<-release
	})
	svc, err := NewService(det, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetObs(reg)
	ctx := context.Background()
	done := make(chan []Report, 1)
	go func() { done <- svc.Run(ctx, Feed(ctx, shards(1, 4), 0)) }()
	if got := <-observed; got != 1 {
		t.Fatalf("inflight gauge mid-task = %v, want 1", got)
	}
	close(release)
	if reports := <-done; len(reports) != 1 {
		t.Fatalf("%d reports", len(reports))
	}
}

// TestServiceInflightPeaksAtWorkers: with three workers and a detector that
// blocks, exactly three tasks are in flight at once, never more, and the
// gauge returns to zero once Run drains.
func TestServiceInflightPeaksAtWorkers(t *testing.T) {
	const workers, tasks = 3, 7
	reg := obs.NewRegistry()
	entered := make(chan float64, tasks)
	release := make(chan struct{})
	det := funcDetector(func() { // samples the gauge, then blocks until released
		entered <- inflightGauge(reg).Value()
		<-release
	})
	svc, err := NewService(det, workers)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetObs(reg)
	ctx := context.Background()
	done := make(chan []Report, 1)
	go func() { done <- svc.Run(ctx, Feed(ctx, shards(tasks, 4), 0)) }()
	peak := 0.0
	for range workers {
		peak = max(peak, <-entered)
	}
	if got := inflightGauge(reg).Value(); got != workers {
		t.Fatalf("inflight gauge with every worker blocked = %v, want %d", got, workers)
	}
	select {
	case got := <-entered:
		t.Fatalf("a task started while all %d workers were blocked (gauge %v)", workers, got)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if reports := <-done; len(reports) != tasks {
		t.Fatalf("%d reports, want %d", len(reports), tasks)
	}
	close(entered)
	for got := range entered {
		peak = max(peak, got)
	}
	if peak != workers {
		t.Fatalf("inflight gauge peaked at %v, want %d", peak, workers)
	}
	if got := inflightGauge(reg).Value(); got != 0 {
		t.Fatalf("inflight gauge = %v after Run, want 0", got)
	}
}

// TestServiceInflightDrainsAfterRun: at one and at several workers, every
// task is reported and the in-flight gauge returns to zero once Run drains.
func TestServiceInflightDrainsAfterRun(t *testing.T) {
	const tasks = 20
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		var calls atomic.Int64
		svc, err := NewService(funcDetector(func() { calls.Add(1) }), workers)
		if err != nil {
			t.Fatal(err)
		}
		svc.SetObs(reg)
		ctx := context.Background()
		if reports := svc.Run(ctx, Feed(ctx, shards(tasks, 4), 0)); len(reports) != tasks {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(reports), tasks)
		}
		if got := calls.Load(); got != tasks {
			t.Fatalf("workers=%d: detector ran %d times, want %d", workers, got, tasks)
		}
		if got := inflightGauge(reg).Value(); got != 0 {
			t.Fatalf("workers=%d: inflight gauge = %v after Run, want 0", workers, got)
		}
	}
}

// TestServiceRunsEveryTaskOnce: at worker counts below, near and above the
// task count, each fed task is detected and reported exactly once.
func TestServiceRunsEveryTaskOnce(t *testing.T) {
	const tasks = 5
	for _, workers := range []int{1, 2, 7} {
		var calls atomic.Int64
		svc, err := NewService(funcDetector(func() { calls.Add(1) }), workers)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		seen := make([]int, tasks)
		for _, r := range svc.Run(ctx, Feed(ctx, shards(tasks, 4), 0)) {
			if r.TaskID < 0 || r.TaskID >= tasks {
				t.Fatalf("workers=%d: report for unknown task %d", workers, r.TaskID)
			}
			seen[r.TaskID]++
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: task %d reported %d times", workers, id, n)
			}
		}
		if got := calls.Load(); got != tasks {
			t.Fatalf("workers=%d: detector ran %d times, want %d", workers, got, tasks)
		}
	}
}

// TestServiceObsDegradedAndDead: a hard-failing primary degrades to the
// fallback; without a fallback it dead-letters.
func TestServiceObsDegradedAndDead(t *testing.T) {
	primary := &switchable{}
	primary.set(true)

	svc, _ := NewServiceWithPolicy(primary, 1, Policy{Fallback: flagOdd{}})
	reg := obs.NewRegistry()
	svc.SetObs(reg)
	ctx := context.Background()
	svc.Run(ctx, Feed(ctx, shards(2, 4), 0))
	if got := lakeCounter(reg, "degraded").Value(); got != 2 {
		t.Fatalf("degraded counter = %d, want 2", got)
	}

	svc2, _ := NewServiceWithPolicy(primary, 1, Policy{})
	reg2 := obs.NewRegistry()
	svc2.SetObs(reg2)
	svc2.Run(ctx, Feed(ctx, shards(2, 4), 0))
	if got := lakeCounter(reg2, "dead_letter").Value(); got != 2 {
		t.Fatalf("dead-letter counter = %d, want 2", got)
	}
}

// TestServiceObsBrownoutSeries: with a brownout ladder installed before
// SetObs, the per-tier series are pre-registered, tier-stamped completions
// land in the per-tier counters and F1 histograms, every completed task is
// counted at exactly one tier, and the families are in the exposition.
func TestServiceObsBrownoutSeries(t *testing.T) {
	svc := tierStampingService(t)
	reg := obs.NewRegistry()
	svc.SetObs(reg)
	ctx := context.Background()
	data := shards(24, 4)
	// Same pacing as the differential test: arrivals outrun the 50ms full
	// rung, so admission serves tasks at both tiers.
	reports := svc.Run(ctx, Feed(ctx, data, 2*time.Millisecond))

	perTier := map[string]int{}
	for _, rep := range reports {
		if rep.Shed {
			continue
		}
		if rep.Err != nil {
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
		perTier[rep.Tier]++
	}
	if perTier[TierFull] == 0 || perTier[TierFallback] == 0 {
		t.Fatalf("both tiers should have served tasks, got %v", perTier)
	}
	var tierSum uint64
	for _, tier := range []string{TierFull, TierFallback} {
		got := svc.obs.tierTasks(tier).Value()
		if got != uint64(perTier[tier]) {
			t.Fatalf("tier %s task counter = %d, want %d", tier, got, perTier[tier])
		}
		if n := svc.obs.tierF1(tier).Count(); n != got {
			t.Fatalf("tier %s F1 histogram count = %d, want %d", tier, n, got)
		}
		tierSum += got
	}
	completed := lakeCounter(reg, "ok").Value() + lakeCounter(reg, "degraded").Value() + lakeCounter(reg, "dead_letter").Value()
	if tierSum != completed {
		t.Fatalf("Σ enld_lake_tier_tasks_total = %d, ok + degraded + dead_letter = %d", tierSum, completed)
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"enld_lake_tier_tasks_total",
		"enld_lake_detection_f1",
		"enld_lake_queue_depth",
	} {
		if !strings.Contains(expo.String(), family) {
			t.Fatalf("exposition missing %s:\n%s", family, expo.String())
		}
	}
}

// TestKeepRecentConfigurable: SetKeepRecent bounds the recent list and is
// reported in the snapshot.
func TestKeepRecentConfigurable(t *testing.T) {
	tr := NewStatusTracker()
	tr.SetKeepRecent(3)
	for i := 0; i < 10; i++ {
		tr.Record(Report{TaskID: i, Size: 4})
	}
	st := tr.Snapshot()
	if st.KeepRecent != 3 {
		t.Fatalf("snapshot keep_recent = %d, want 3", st.KeepRecent)
	}
	if len(st.Recent) != 3 {
		t.Fatalf("recent has %d entries, want 3", len(st.Recent))
	}
	if st.Recent[0].TaskID != 9 {
		t.Fatalf("recent[0] task = %d, want 9 (most recent first)", st.Recent[0].TaskID)
	}
	tr.SetKeepRecent(0) // below 1 restores the default
	if st := tr.Snapshot(); st.KeepRecent != defaultKeepRecent {
		t.Fatalf("keep_recent after reset = %d, want %d", st.KeepRecent, defaultKeepRecent)
	}
}
