package lake

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/mat"
	"enld/internal/metrics"
	"enld/internal/obs"
	"enld/internal/parallel"
)

// Request is one incoming noisy-label detection task.
type Request struct {
	// TaskID identifies the request in reports.
	TaskID int
	// Data is the incremental dataset to screen.
	Data dataset.Set
}

// Report is the outcome of one processed request.
type Report struct {
	TaskID int
	Size   int
	// Result is the detector's partition of the dataset.
	Result *detect.Result
	// Detection scores the result against ground truth when the request's
	// samples carry true labels (synthetic workloads always do).
	Detection metrics.Detection
	// Queued is how long the request waited before a worker picked it up;
	// Process is the detector's own processing time.
	Queued  time.Duration
	Process time.Duration
	Err     error
	// Retries is how many extra primary attempts the task consumed on
	// transient failures before succeeding, degrading or dead-lettering.
	Retries int
	// Degraded marks a result produced by the fallback detector after the
	// primary path failed or was bypassed by an open circuit breaker. A
	// degraded result is real output, but never ENLD-quality output.
	Degraded bool
	// DeadLettered marks a task that exhausted every path — retries and
	// fallback included — and carries only an error. No task is silently
	// dropped: it either succeeds, degrades, dead-letters, is shed at
	// admission, or is abandoned at shutdown.
	DeadLettered bool
	// Shed marks a task rejected at admission by the overload shedder: the
	// queue was full, or the task's predicted queue wait already exceeded
	// its deadline. A shed task consumed no detector work and is not a
	// failure of the detection path — it is the service declining work it
	// could not serve in time (see AdmissionConfig).
	Shed bool
	// Abandoned marks a task that was admitted to the queue but never
	// processed because the service shut down first. Counting these keeps
	// zero-lost-task audits exact: every admitted task appears in the
	// reports as ok, degraded, dead-lettered, shed or abandoned.
	Abandoned bool
	// Tier names the brownout ladder rung the task was served at, stamped
	// at admission ("" when brownout is not configured). A task keeps its
	// admission tier even if the controller moves while it is queued.
	Tier string
	// Shard names the cluster shard that finally served (or accounted) the
	// task; empty outside cluster mode (see internal/lake/cluster).
	Shard string
	// Rerouted marks a task served by a shard other than its rendezvous
	// owner because the owner was down or failed the submission.
	Rerouted bool
}

// ErrBreakerOpen reports a task bypassing the primary detector because the
// circuit breaker is open.
var ErrBreakerOpen = errors.New("lake: circuit breaker open")

// Service processes detection requests with a fixed detector and a bounded
// worker pool, in the arrival order the platform scenario prescribes.
// Workers run concurrently, so the detector must be safe for concurrent
// Detect calls (every detector in this repository is: each call clones the
// shared general model).
type Service struct {
	detector detect.Detector
	workers  int
	policy   Policy
	breaker  *Breaker

	// retryMu guards retryRNG, the shared jitter source.
	retryMu  sync.Mutex
	retryRNG *mat.RNG

	// skip holds task IDs already completed in a previous incarnation
	// (recovered from the segment log's detection outcomes); Run drops
	// them without processing.
	skip map[int]bool

	// obs holds the metric handles attached by SetObs; nil means unobserved.
	obs *lakeObs

	// inventory, when set, durably records every arriving dataset before a
	// worker may process it.
	inventory Inventory

	// Overload control: ewma estimates task service time for the admission
	// shedder, queueLen tracks admitted-but-not-started tasks, latency feeds
	// the brownout controller's windowed p95, and brownout (nil when not
	// configured) holds the degradation ladder and its state machine.
	ewma      *serviceEWMA
	queueLen  atomic.Int64
	latency   *obs.Histogram
	brownout  *brownout
	shed      atomic.Int64
	abandoned atomic.Int64

	// OnReport, when set, is invoked from worker goroutines as each task
	// completes — before Run returns — so live dashboards (StatusTracker)
	// can observe progress. The callback must be safe for concurrent use.
	OnReport func(Report)
}

// NewService returns a service running detector on workers goroutines with
// the zero (fail-fast) policy.
func NewService(detector detect.Detector, workers int) (*Service, error) {
	return NewServiceWithPolicy(detector, workers, Policy{})
}

// NewServiceWithPolicy returns a service with resilience behaviour per
// policy.
func NewServiceWithPolicy(detector detect.Detector, workers int, policy Policy) (*Service, error) {
	if detector == nil {
		return nil, errors.New("lake: nil detector")
	}
	if workers < 1 {
		return nil, fmt.Errorf("lake: worker count %d", workers)
	}
	policy, err := policy.normalized()
	if err != nil {
		return nil, err
	}
	s := &Service{
		detector: detector,
		workers:  workers,
		policy:   policy,
		retryRNG: mat.NewRNG(policy.RetrySeed ^ 0xd1b54a32d192ed03),
		ewma:     newServiceEWMA(policy.Admission.EWMAAlpha, policy.Admission.InitialServiceTime),
		latency:  obs.NewHistogram(taskBuckets),
	}
	if policy.BreakerThreshold > 0 {
		s.breaker = NewBreaker(policy.BreakerThreshold, policy.BreakerCooldown)
	}
	return s, nil
}

// SetBrownout installs a degradation ladder and enables the brownout
// controller: during Run a control loop watches queue depth and the p95 of
// task service time over each evaluation window and steps the active tier
// down the ladder under pressure (and back up, tier-by-tier, when it
// clears). Tasks are stamped with the active tier at admission and keep it:
// a tier change never alters the result of a task already admitted. Call
// before Run. onChange, when non-nil, observes transitions (ladder indexes).
func (s *Service) SetBrownout(ladder []TierDetector, cfg BrownoutConfig, onChange func(from, to int)) error {
	b, err := newBrownout(ladder, cfg)
	if err != nil {
		return err
	}
	b.onTierChange = onChange
	s.brownout = b
	return nil
}

// OverloadStatus is the live overload-control block of /statusz: admission
// queue occupancy, shed/abandoned accounting and the brownout tier.
type OverloadStatus struct {
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// EWMATaskSeconds is the shedder's current service-time estimate.
	EWMATaskSeconds float64 `json:"ewma_task_seconds"`
	TasksShed       int     `json:"tasks_shed"`
	TasksAbandoned  int     `json:"tasks_abandoned"`
	// Brownout state; Tier is -1 when no ladder is configured.
	BrownoutTier     int    `json:"brownout_tier"`
	BrownoutTierName string `json:"brownout_tier_name,omitempty"`
	BrownoutMaxTier  int    `json:"brownout_max_tier"`
	TierChanges      int    `json:"tier_changes"`
}

// OverloadStatus returns the service's live overload-control state. Safe for
// concurrent use while Run is active.
func (s *Service) OverloadStatus() OverloadStatus {
	st := OverloadStatus{
		QueueDepth:      int(s.queueLen.Load()),
		QueueCapacity:   s.policy.Admission.QueueDepth,
		EWMATaskSeconds: s.ewma.value(),
		TasksShed:       int(s.shed.Load()),
		TasksAbandoned:  int(s.abandoned.Load()),
		BrownoutTier:    -1,
	}
	if b := s.brownout; b != nil {
		tier := b.activeTier()
		st.BrownoutTier = tier
		st.BrownoutTierName = b.ladder[tier].Name
		st.BrownoutMaxTier = int(b.maxTier.Load())
		st.TierChanges = int(b.tierChanges.Load())
	}
	return st
}

// Breaker returns the service's circuit breaker, or nil when the policy
// disables it. Callers may observe state and register transition hooks.
func (s *Service) Breaker() *Breaker { return s.breaker }

// SkipCompleted marks task IDs as already completed (e.g. a segment log's
// DoneTasks after a crash); Run drops matching requests without
// reprocessing.
// Call before Run.
func (s *Service) SkipCompleted(ids map[int]bool) {
	if len(ids) == 0 {
		return
	}
	s.skip = make(map[int]bool, len(ids))
	for id, done := range ids {
		if done {
			s.skip[id] = true
		}
	}
}

// SetInventory attaches durable storage: every arriving dataset is appended
// to inv before a worker may process it, so an accepted arrival survives a
// crash even if its detection never ran. A task whose durable append fails
// is dead-lettered with the storage error — processing data the platform
// could not retain would fake durability. Call before Run; nil detaches.
func (s *Service) SetInventory(inv Inventory) {
	s.inventory = inv
}

// stamped is one admitted task: the request, its admission time, and the
// brownout tier it was admitted at (the tier it keeps even if the controller
// moves while it waits).
type stamped struct {
	req     Request
	arrived time.Time
	tier    int
}

// Run consumes requests until the channel closes or ctx is cancelled, and
// returns one report per accepted request, ordered by TaskID. A cancelled
// context stops admission and waits for in-flight tasks; tasks already
// admitted but never started are reported as Abandoned rather than silently
// dropped, so the accounting identity holds: every accepted task appears in
// the reports exactly once (ok, degraded, dead-lettered, shed or abandoned).
//
// The worker pool is the shared parallel.Pool: Run blocks in Pool.Run while
// a feeder goroutine stamps arrivals onto the work channel; closing the
// channel releases the workers. With Policy.Admission configured the work
// channel is the bounded admission queue and the feeder sheds instead of
// blocking (see AdmissionConfig); otherwise it is an unbuffered hand-off
// whose backpressure blocks the submitter, exactly the legacy behaviour.
func (s *Service) Run(ctx context.Context, requests <-chan Request) []Report {
	admission := s.policy.Admission
	work := make(chan stamped, admission.QueueDepth)
	var mu sync.Mutex
	var reports []Report

	// file routes one finished report to the observer hook and the result
	// slice. Callers record metrics first.
	file := func(rep Report) {
		if s.OnReport != nil {
			s.OnReport(rep)
		}
		mu.Lock()
		reports = append(reports, rep)
		mu.Unlock()
	}

	go func() {
		defer close(work)
		for {
			select {
			case <-ctx.Done():
				return
			case req, ok := <-requests:
				if !ok {
					return
				}
				if s.skip[req.TaskID] {
					continue
				}
				tier := s.brownout.activeTier()
				// Reject-early shedding runs before the durable append: a
				// task the service refuses to serve should not consume a
				// storage write.
				if admission.QueueDepth > 0 {
					if rep, shed := s.admit(req, tier, admission); shed {
						s.obs.record(rep, 0)
						file(rep)
						continue
					}
				}
				if s.inventory != nil {
					if _, err := s.inventory.AppendDataset(fmt.Sprintf("task-%d", req.TaskID), req.Data); err != nil {
						rep := Report{
							TaskID:       req.TaskID,
							Size:         len(req.Data),
							Tier:         s.tierName(tier),
							DeadLettered: true,
							Err:          fmt.Errorf("lake: task %d: durable append: %w", req.TaskID, err),
						}
						s.obs.record(rep, 0)
						file(rep)
						continue
					}
				}
				st := stamped{req: req, arrived: time.Now(), tier: tier}
				if admission.QueueDepth > 0 {
					// admit reserved the slot: queueLen ≤ QueueDepth bounds
					// channel occupancy, so this send cannot block.
					s.setQueueDepth(s.queueLen.Add(1))
					work <- st
					continue
				}
				select {
				case work <- st:
				case <-ctx.Done():
					// The hand-off never happened: this task was accepted
					// but will never run. Account for it.
					rep := s.abandonReport(st)
					s.obs.record(rep, 0)
					file(rep)
					return
				}
			}
		}
	}()

	stopCtl := s.startBrownout()

	pool := parallel.New(s.workers)
	if s.obs != nil {
		pool.Instrument(s.obs.reg, "lake")
	}
	pool.Run(func(int) {
		for st := range work {
			if admission.QueueDepth > 0 {
				s.setQueueDepth(s.queueLen.Add(-1))
			}
			if ctx.Err() != nil {
				// Shutting down: drain the queue with accounting instead of
				// either processing doomed tasks or dropping them silently.
				rep := s.abandonReport(st)
				s.obs.record(rep, 0)
				file(rep)
				continue
			}
			queued := time.Since(st.arrived)
			s.obs.taskStarted()
			began := time.Now()
			rep := s.process(ctx, st.req, st.tier)
			rep.Queued = queued
			elapsed := time.Since(began)
			s.obs.taskFinished()
			s.ewma.observe(elapsed)
			s.latency.Observe(elapsed.Seconds())
			s.obs.record(rep, elapsed)
			file(rep)
		}
	})
	stopCtl()

	sortReports(reports)
	return reports
}

// admit runs the deadline-aware shedding decision for one arriving task.
// It returns (report, true) when the task is shed. Only the feeder
// goroutine calls it, so the depth read cannot race another admission;
// workers may decrement depth concurrently, which only makes the estimate
// conservative (a stale-high depth sheds a borderline task one tick early).
func (s *Service) admit(req Request, tier int, a AdmissionConfig) (Report, bool) {
	depth := s.queueLen.Load()
	if int(depth) >= a.QueueDepth {
		return s.shedReport(req, tier, fmt.Sprintf("admission queue full (%d tasks)", depth)), true
	}
	if a.MaxQueueWait > 0 {
		predicted := time.Duration(float64(depth) * s.ewma.value() / float64(s.workers) * float64(time.Second))
		if predicted > a.MaxQueueWait {
			return s.shedReport(req, tier, fmt.Sprintf(
				"predicted queue wait %s exceeds %s (depth %d, ewma task %s)",
				predicted.Round(time.Millisecond), a.MaxQueueWait, depth,
				time.Duration(s.ewma.value()*float64(time.Second)).Round(time.Millisecond))), true
		}
	}
	return Report{}, false
}

// shedReport builds the outcome=shed report for a rejected task.
func (s *Service) shedReport(req Request, tier int, reason string) Report {
	s.shed.Add(1)
	return Report{
		TaskID: req.TaskID,
		Size:   len(req.Data),
		Tier:   s.tierName(tier),
		Shed:   true,
		Err:    fmt.Errorf("lake: task %d: shed: %s", req.TaskID, reason),
	}
}

// abandonReport builds the outcome=abandoned report for an admitted task the
// shutdown overtook.
func (s *Service) abandonReport(st stamped) Report {
	s.abandoned.Add(1)
	return Report{
		TaskID:    st.req.TaskID,
		Size:      len(st.req.Data),
		Tier:      s.tierName(st.tier),
		Abandoned: true,
		Err:       fmt.Errorf("lake: task %d: abandoned at shutdown before processing", st.req.TaskID),
	}
}

// tierName resolves a ladder index to its label value ("" without brownout).
func (s *Service) tierName(tier int) string {
	if s.brownout == nil {
		return ""
	}
	return s.brownout.ladder[tier].Name
}

// startBrownout launches the brownout control loop and returns its stop
// function (a no-op closure when brownout is not configured).
func (s *Service) startBrownout() func() {
	b := s.brownout
	if b == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(b.cfg.Interval)
		defer ticker.Stop()
		prev := s.latency.Snapshot()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				snap := s.latency.Snapshot()
				win := snap.Sub(prev)
				prev = snap
				from, to, changed := b.step(int(s.queueLen.Load()), win.Quantile(0.95))
				if changed {
					s.obs.brownoutTransition(b, from, to)
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// process runs one request through the full resilience pipeline: primary
// detector (breaker-gated, deadline-bounded, retried on transient errors),
// then the fallback detector, then the dead-letter report. A panicking
// detector is contained: the panic becomes an attempt error rather than
// killing the worker pool. With brownout configured the primary detector is
// the one serving the task's admission tier.
func (s *Service) process(ctx context.Context, req Request, tier int) Report {
	rep := Report{TaskID: req.TaskID, Size: len(req.Data), Tier: s.tierName(tier)}
	primary := s.detector
	if s.brownout != nil {
		primary = s.brownout.ladder[tier].Detector
	}

	primaryErr := ErrBreakerOpen
	if s.breaker == nil || s.breaker.Allow() {
		var res *detect.Result
		res, rep.Retries, primaryErr = s.attemptWithRetry(ctx, primary, req)
		if primaryErr == nil {
			if s.breaker != nil {
				s.breaker.Success()
			}
			fill(&rep, req, res)
			return rep
		}
		if s.breaker != nil {
			s.breaker.Failure()
		}
	}

	if s.policy.Fallback != nil {
		res, err := s.attempt(s.policy.Fallback, req)
		if err == nil {
			rep.Degraded = true
			fill(&rep, req, res)
			return rep
		}
		primaryErr = errors.Join(primaryErr, fmt.Errorf("fallback: %w", err))
	}

	rep.DeadLettered = true
	rep.Err = fmt.Errorf("lake: task %d: %w", req.TaskID, primaryErr)
	return rep
}

// fill completes a report from a successful detection result.
func fill(rep *Report, req Request, res *detect.Result) {
	rep.Result = res
	rep.Process = res.Process
	rep.Detection = metrics.EvaluateDetection(req.Data, res.Noisy)
}

// attemptWithRetry runs the primary detector, retrying transient failures
// up to the policy's budget with exponential backoff and jitter. It returns
// the retry count actually consumed.
func (s *Service) attemptWithRetry(ctx context.Context, det detect.Detector, req Request) (*detect.Result, int, error) {
	var err error
	for attempt := 0; ; attempt++ {
		var res *detect.Result
		res, err = s.attempt(det, req)
		if err == nil {
			return res, attempt, nil
		}
		if attempt >= s.policy.MaxRetries || !transientErr(err) {
			return nil, attempt, err
		}
		delay := s.policy.backoff(attempt) + s.jitter()
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			// Shutting down: don't burn the backoff budget, report the
			// last failure.
			return nil, attempt, err
		}
	}
}

// jitter draws a uniform delay in [0, RetryBase) to decorrelate concurrent
// workers' retry schedules.
func (s *Service) jitter() time.Duration {
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	return time.Duration(s.retryRNG.Float64() * float64(s.policy.RetryBase))
}

// attempt runs one deadline-bounded detector call. With no TaskTimeout the
// call runs inline; otherwise it runs in a goroutine and a timeout converts
// a stuck detector into a report error — the abandoned goroutine finishes
// (and is discarded) in the background instead of wedging the worker.
func (s *Service) attempt(det detect.Detector, req Request) (*detect.Result, error) {
	if s.policy.TaskTimeout <= 0 {
		return runDetect(det, req)
	}
	type outcome struct {
		res *detect.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runDetect(det, req)
		done <- outcome{res: res, err: err}
	}()
	timer := time.NewTimer(s.policy.TaskTimeout)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.res, o.err
	case <-timer.C:
		return nil, fmt.Errorf("detector %w after %s", context.DeadlineExceeded, s.policy.TaskTimeout)
	}
}

// runDetect invokes the detector with panic containment. Errors are
// returned raw; the dead-letter path prefixes the task ID exactly once.
func runDetect(det detect.Detector, req Request) (res *detect.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("detector panic: %v", r)
		}
	}()
	return det.Detect(req.Data)
}

func sortReports(reports []Report) {
	sort.Slice(reports, func(i, j int) bool { return reports[i].TaskID < reports[j].TaskID })
}

// Feed converts pre-sharded incremental datasets into a request channel,
// optionally pacing arrivals by interval (0 means as fast as consumed).
// The channel closes after the last shard. Cancel ctx to stop early.
func Feed(ctx context.Context, shards []dataset.Set, interval time.Duration) <-chan Request {
	out := make(chan Request)
	go func() {
		defer close(out)
		for i, shard := range shards {
			if interval > 0 && i > 0 {
				select {
				case <-time.After(interval):
				case <-ctx.Done():
					return
				}
			}
			select {
			case out <- Request{TaskID: i, Data: shard}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
