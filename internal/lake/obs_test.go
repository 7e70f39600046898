package lake

import (
	"context"
	"strings"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
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
	taskSec := reg.Histogram("enld_lake_task_seconds",
		"End-to-end processing time of one lake task (queue wait excluded).", taskBuckets)
	if got := taskSec.Count(); got != 3 {
		t.Fatalf("task histogram count = %d, want 3", got)
	}
	queued := reg.Histogram("enld_lake_queued_seconds",
		"Time a lake task waited in the queue before a worker picked it up.", taskBuckets)
	if got := queued.Count(); got != 3 {
		t.Fatalf("queued histogram count = %d, want 3", got)
	}
	// The lake pool's busy gauge must have returned to zero.
	busy := reg.Gauge("enld_pool_busy_workers",
		"Workers currently executing, by pool name.",
		obs.Label{Key: "pool", Value: "lake"})
	if got := busy.Value(); got != 0 {
		t.Fatalf("lake pool busy gauge = %v after drain, want 0", got)
	}
	inflight := reg.Gauge("enld_lake_inflight_tasks",
		"Lake tasks currently being processed by a worker. Pinned at the worker count when the service is saturated — the load harness reads this to tell queueing delay from processing delay.")
	if got := inflight.Value(); got != 0 {
		t.Fatalf("inflight gauge = %v after drain, want 0", got)
	}
}

// TestServiceObsInflight: the in-flight gauge rises while a worker holds a
// task and returns to zero once the run drains.
func TestServiceObsInflight(t *testing.T) {
	release := make(chan struct{})
	observed := make(chan float64, 1)
	reg := obs.NewRegistry()
	det := funcDetector(func() { // blocks until released, sampling the gauge
		observed <- reg.Gauge("enld_lake_inflight_tasks",
			"Lake tasks currently being processed by a worker. Pinned at the worker count when the service is saturated — the load harness reads this to tell queueing delay from processing delay.").Value()
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
	// Same pacing as the differential test: arrivals outrun the 15ms full
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

// TestObserveBreakerTransitions: breaker state changes surface as labelled
// transition counters and state/timestamp gauges, and metrics coexist with a
// previously registered OnTransition hook.
func TestObserveBreakerTransitions(t *testing.T) {
	b := NewBreaker(2, time.Hour)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	var hookCalls int
	b.OnTransition(func(from, to BreakerState) { hookCalls++ })

	reg := obs.NewRegistry()
	ObserveBreaker(b, reg)

	state := reg.Gauge("enld_lake_breaker_state",
		"Current circuit breaker state: 0 closed, 1 open, 2 half-open.")
	if got := state.Value(); got != 0 {
		t.Fatalf("initial state gauge = %v, want 0 (closed)", got)
	}

	b.Failure()
	b.Failure() // trips: closed → open
	clock = clock.Add(2 * time.Hour)
	if !b.Allow() { // cooldown elapsed: open → half-open, probe admitted
		t.Fatal("probe not admitted after cooldown")
	}
	b.Success() // half-open → closed

	wantTransitions := map[[2]BreakerState]uint64{
		{BreakerClosed, BreakerOpen}:     1,
		{BreakerOpen, BreakerHalfOpen}:   1,
		{BreakerHalfOpen, BreakerClosed}: 1,
		{BreakerHalfOpen, BreakerOpen}:   0,
	}
	for tr, want := range wantTransitions {
		c := reg.Counter("enld_lake_breaker_transitions_total",
			"Circuit breaker state transitions.",
			obs.Label{Key: "from", Value: tr[0].String()},
			obs.Label{Key: "to", Value: tr[1].String()})
		if got := c.Value(); got != want {
			t.Fatalf("transition %s→%s = %d, want %d", tr[0], tr[1], got, want)
		}
	}
	if got := state.Value(); got != 0 {
		t.Fatalf("final state gauge = %v, want 0 (closed)", got)
	}
	last := reg.Gauge("enld_lake_breaker_last_transition_timestamp_seconds",
		"Unix time of the breaker's most recent state transition.")
	if last.Value() <= 0 {
		t.Fatal("last-transition timestamp never set")
	}
	if hookCalls != 3 {
		t.Fatalf("pre-existing hook saw %d transitions, want 3 (observer list broken)", hookCalls)
	}
}

// TestKeepRecentConfigurable: SetKeepRecent bounds the recent list and is
// reported in the snapshot.
func TestKeepRecentConfigurable(t *testing.T) {
	tr := NewStatusTracker(nil)
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
