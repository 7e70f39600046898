package lake

import (
	"time"

	"enld/internal/obs"
)

// lakeObs holds the service's pre-interned metric handles.
type lakeObs struct {
	reg            *obs.Registry
	tasksOK        *obs.Counter
	tasksDegraded  *obs.Counter
	tasksDead      *obs.Counter
	tasksShed      *obs.Counter
	tasksAbandoned *obs.Counter
	taskSeconds    *obs.Histogram
	queuedSeconds  *obs.Histogram
	inflight       *obs.Gauge
	queueDepth     *obs.Gauge
}

// f1Buckets spans the [0, 1] detection-F1 range; the load harness reads
// per-tier quality as sum/count (the mean) so bucket placement only affects
// dashboard resolution.
var f1Buckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}

// taskBuckets spans detection-task latencies: sub-millisecond degraded
// fallbacks up to multi-minute full ENLD runs.
var taskBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// SetObs attaches an observability registry to the service: per-outcome task
// counters (enld_lake_tasks_total{outcome=...}) and task latency /
// queue-wait histograms. Every outcome series is registered up
// front so scrapes show zeros instead of absent series. Call before Run; a
// nil registry detaches. Metrics are recorded from worker goroutines — the
// registry's hot path is lock-free, so this adds no serialization.
func (s *Service) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.obs = nil
		return
	}
	outcome := func(v string) *obs.Counter {
		return reg.Counter("enld_lake_tasks_total",
			"Completed lake detection tasks, by outcome.",
			obs.Label{Key: "outcome", Value: v})
	}
	s.obs = &lakeObs{
		reg:            reg,
		tasksOK:        outcome("ok"),
		tasksDegraded:  outcome("degraded"),
		tasksDead:      outcome("dead_letter"),
		tasksShed:      outcome("shed"),
		tasksAbandoned: outcome("abandoned"),
		taskSeconds: reg.Histogram("enld_lake_task_seconds",
			"End-to-end processing time of one lake task (queue wait excluded).", taskBuckets),
		queuedSeconds: reg.Histogram("enld_lake_queued_seconds",
			"Time a lake task waited in the queue before a worker picked it up.", taskBuckets),
		inflight: reg.Gauge("enld_lake_inflight_tasks",
			"Lake tasks currently being processed by a worker. Pinned at the worker count when the service is saturated — the load harness reads this to tell queueing delay from processing delay."),
		queueDepth: reg.Gauge("enld_lake_queue_depth",
			"Admitted-but-not-started lake tasks in the bounded admission queue (0 without bounded admission)."),
	}
	// Pre-register the per-tier quality series for a ladder already
	// installed, so scrapes show them at zero from the start.
	for _, r := range s.rungs {
		if r.name != "" {
			s.obs.tierTasks(r.name)
			s.obs.tierF1(r.name)
		}
	}
}

// tierTasks interns the per-tier completed-task counter.
func (o *lakeObs) tierTasks(tier string) *obs.Counter {
	return o.reg.Counter("enld_lake_tier_tasks_total",
		"Completed lake tasks, by brownout tier served.",
		obs.Label{Key: "tier", Value: tier})
}

// tierF1 interns the per-tier detection-F1 histogram. Mean F1 for a tier is
// sum/count; the load harness reads it to enforce per-tier quality floors.
func (o *lakeObs) tierF1(tier string) *obs.Histogram {
	return o.reg.Histogram("enld_lake_detection_f1",
		"Detection F1 of completed lake tasks scored against ground truth, by brownout tier.",
		f1Buckets, obs.Label{Key: "tier", Value: tier})
}

// taskStarted/taskFinished bracket one worker's processing of a task for the
// in-flight gauge. Nil-safe like every obs handle.
func (o *lakeObs) taskStarted() {
	if o == nil {
		return
	}
	o.inflight.Add(1)
}

func (o *lakeObs) taskFinished() {
	if o == nil {
		return
	}
	o.inflight.Add(-1)
}

// record files one finished task. elapsed is the worker's wall-clock
// processing time (primary attempt and fallback included — unlike
// Report.Process, which only the successful detector call stamps). Shed and
// abandoned tasks count in the outcome taxonomy but deliberately skip the
// latency histograms: no detector work ran, and folding their zeros in would
// deflate the very percentiles the overload SLOs are judged on.
func (o *lakeObs) record(rep Report, elapsed time.Duration) {
	if o == nil {
		return
	}
	switch {
	case rep.Shed:
		o.tasksShed.Inc()
		return
	case rep.Abandoned:
		o.tasksAbandoned.Inc()
		return
	case rep.DeadLettered:
		o.tasksDead.Inc()
	case rep.Degraded:
		o.tasksDegraded.Inc()
	default:
		o.tasksOK.Inc()
	}
	o.taskSeconds.Observe(elapsed.Seconds())
	o.queuedSeconds.Observe(rep.Queued.Seconds())
	if rep.Tier != "" {
		o.tierTasks(rep.Tier).Inc()
		if rep.Result != nil {
			o.tierF1(rep.Tier).Observe(rep.Detection.F1)
		}
	}
}

// setQueueDepth mirrors the admission-queue occupancy into the gauge.
func (s *Service) setQueueDepth() {
	if s.obs == nil {
		return
	}
	s.obs.queueDepth.Set(float64(s.queueDepth()))
}

// ObserveBreaker exports a breaker's behaviour through the registry:
// enld_lake_breaker_transitions_total{from,to} counts state changes,
// enld_lake_breaker_state gauges the current state (0 closed, 1 open,
// 2 half-open), and enld_lake_breaker_last_transition_timestamp_seconds
// stamps the most recent change. The four reachable transitions are
// registered up front so scrapes show them at zero. Nil breaker or registry
// is a no-op.
func ObserveBreaker(b *Breaker, reg *obs.Registry) {
	if b == nil || reg == nil {
		return
	}
	transitions := func(from, to BreakerState) *obs.Counter {
		return reg.Counter("enld_lake_breaker_transitions_total",
			"Circuit breaker state transitions.",
			obs.Label{Key: "from", Value: from.String()},
			obs.Label{Key: "to", Value: to.String()})
	}
	for _, t := range [][2]BreakerState{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
		{BreakerHalfOpen, BreakerOpen},
	} {
		transitions(t[0], t[1])
	}
	state := reg.Gauge("enld_lake_breaker_state",
		"Current circuit breaker state: 0 closed, 1 open, 2 half-open.")
	last := reg.Gauge("enld_lake_breaker_last_transition_timestamp_seconds",
		"Unix time of the breaker's most recent state transition.")
	state.Set(float64(b.State()))
	b.OnTransition(func(from, to BreakerState) {
		transitions(from, to).Inc()
		state.Set(float64(to))
		last.Set(float64(time.Now().UnixNano()) / 1e9)
	})
}
