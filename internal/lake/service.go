// Package lake simulates the data-platform side of the paper's deployment
// scenario (§I, §IV-A): an inventory holding the platform's labelled data, a
// stream of incremental datasets arriving over time, and a service that runs
// a noisy-label detector over each arrival while recording the
// setup-versus-process timing split of §V-A3.
package lake

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/metrics"
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
	// Process is the worker's wall-clock time on it: the primary attempt,
	// the fallback and any injected slowdown included. It is the value
	// enld_lake_task_seconds observes and /statusz averages.
	Queued  time.Duration
	Process time.Duration
	Err     error
	// Retries is always 0: the service attempts each detector once. It
	// stays only because the benchmark harness still reads it; ROADMAP 1(b)
	// deletes it in the next benchmark change.
	Retries int
	// Degraded marks a result produced by the fallback detector after the
	// primary path failed. A degraded result is real output, but never
	// ENLD-quality output.
	Degraded bool
	// DeadLettered marks a task that exhausted every path — the primary
	// detector and the fallback — and carries only an error. No task is
	// silently dropped: it either succeeds, degrades, dead-letters, is shed
	// at admission, or is abandoned at shutdown.
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
	// Tier names the brownout ladder rung the task was served at, chosen
	// once at admission ("" when brownout is not configured, and on shed
	// reports).
	Tier string
	// Shard names the cluster shard that finally served (or accounted) the
	// task; empty outside cluster mode (see internal/lake/cluster).
	Shard string
	// Rerouted marks a task served by a shard other than its rendezvous
	// owner because the owner was down or failed the submission.
	Rerouted bool
}

// Service processes detection requests with a fixed detector and a bounded
// worker pool, in the arrival order the platform scenario prescribes.
// Workers run concurrently, so the detector must be safe for concurrent
// Detect calls (every detector in this repository is: each call clones the
// shared general model).
type Service struct {
	workers int
	policy  Policy

	// resumed holds, for a resumed run, the task IDs a previous incarnation
	// already handled: true when its outcome is recorded (Run drops the
	// task), false when only its arrival is stored (Run processes the task
	// without appending it again). Nil outside a resume.
	resumed map[int]bool

	// obs holds the metric handles attached by SetObs; nil means unobserved.
	obs *lakeObs

	// inventory, when set, durably records every arriving dataset before a
	// worker may process it.
	inventory Inventory

	// rungs are the admission classes: one unnamed rung serving the
	// detector, or one per brownout ladder tier. Each carries the service-
	// time EWMA and queued-task count the admission rule reads.
	rungs     []*rung
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
	if err := policy.validate(); err != nil {
		return nil, err
	}
	s := &Service{workers: workers, policy: policy}
	s.rungs = []*rung{s.newRung("", detector)}
	return s, nil
}

// newRung returns an admission class serving det, its EWMA at the seed
// service time.
func (s *Service) newRung(name string, det detect.Detector) *rung {
	return &rung{name: name, detector: det, ewma: newServiceEWMA(ewmaAlpha, initialServiceTime)}
}

// SetBrownout installs a degradation ladder: admission then serves each task
// at the highest-quality rung its predicted queue wait allows (see
// AdmissionConfig) and the task keeps that rung, so a change in load never
// alters the result of a task already admitted. The ladder needs bounded
// admission with a wait budget (AdmissionConfig.ValidateBrownout). Call
// before Run.
func (s *Service) SetBrownout(ladder []TierDetector) error {
	if err := validateLadder(ladder); err != nil {
		return err
	}
	if err := s.policy.Admission.ValidateBrownout(); err != nil {
		return err
	}
	rungs := make([]*rung, len(ladder))
	for i, t := range ladder {
		rungs[i] = s.newRung(t.Name, t.Detector)
	}
	s.rungs = rungs
	return nil
}

// OverloadStatus is the live overload-control block of /statusz: admission
// queue occupancy and shed/abandoned accounting.
type OverloadStatus struct {
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// EWMATaskSeconds is the shedder's current service-time estimate of
	// the first (full-quality) rung.
	EWMATaskSeconds float64 `json:"ewma_task_seconds"`
	TasksShed       int     `json:"tasks_shed"`
	TasksAbandoned  int     `json:"tasks_abandoned"`
}

// OverloadStatus returns the service's live overload-control state. Safe for
// concurrent use while Run is active.
func (s *Service) OverloadStatus() OverloadStatus {
	return OverloadStatus{
		QueueDepth:      int(s.queueDepth()),
		QueueCapacity:   s.policy.Admission.QueueDepth,
		EWMATaskSeconds: s.rungs[0].ewma.value(),
		TasksShed:       int(s.shed.Load()),
		TasksAbandoned:  int(s.abandoned.Load()),
	}
}

// SkipCompleted prepares a resume from a previous incarnation's records:
// Run drops the task IDs in done (e.g. a segment log's DoneTasks after a
// crash) without reprocessing, and processes an arrival the attached
// inventory already stores as task-N without appending it a second time.
// Call after SetInventory and before Run.
func (s *Service) SkipCompleted(done map[int]bool) error {
	s.resumed = make(map[int]bool, len(done))
	if s.inventory != nil {
		metas, err := s.inventory.Datasets()
		if err != nil {
			return fmt.Errorf("lake: listing stored arrivals: %w", err)
		}
		for _, m := range metas {
			if id, err := strconv.Atoi(strings.TrimPrefix(m.Name, "task-")); err == nil && m.Name == arrivalName(id) {
				s.resumed[id] = false
			}
		}
	}
	for id, ok := range done {
		if ok {
			s.resumed[id] = true
		}
	}
	return nil
}

// arrivalName is the inventory name of task id's arriving dataset.
func arrivalName(id int) string { return fmt.Sprintf("task-%d", id) }

// SetInventory attaches durable storage: every arriving dataset is appended
// to inv before a worker may process it, so an accepted arrival survives a
// crash even if its detection never ran. A task whose durable append fails
// is dead-lettered with the storage error — processing data the platform
// could not retain would fake durability. Call before Run; nil detaches.
func (s *Service) SetInventory(inv Inventory) {
	s.inventory = inv
}

// stamped is one admitted task: the request, its admission time, and the
// rung it was admitted at.
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
// Run starts the service's worker goroutines, each draining the work
// channel one task at a time, and waits for them while a feeder goroutine
// stamps arrivals onto the channel; closing the channel releases the
// workers. With Policy.Admission configured the work channel is the bounded
// admission queue and the feeder sheds instead of blocking (see
// AdmissionConfig); otherwise it is an unbuffered hand-off whose
// backpressure blocks the submitter, exactly the legacy behaviour.
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
				done, stored := s.resumed[req.TaskID]
				if done {
					continue
				}
				// Reject-early shedding runs before the durable append: a
				// task the service refuses to serve should not consume a
				// storage write.
				tier := 0
				if admission.QueueDepth > 0 {
					var err error
					if tier, err = s.admit(admission); err != nil {
						rep := s.shedReport(req, err)
						s.obs.record(rep)
						file(rep)
						continue
					}
				}
				if s.inventory != nil && !stored {
					if _, err := s.inventory.AppendDataset(arrivalName(req.TaskID), req.Data); err != nil {
						rep := Report{
							TaskID:       req.TaskID,
							Size:         len(req.Data),
							Tier:         s.rungs[tier].name,
							DeadLettered: true,
							Err:          fmt.Errorf("lake: task %d: durable append: %w", req.TaskID, err),
						}
						s.obs.record(rep)
						file(rep)
						continue
					}
				}
				st := stamped{req: req, arrived: time.Now(), tier: tier}
				if admission.QueueDepth > 0 {
					// admit reserved the slot: the queued total ≤ QueueDepth
					// bounds channel occupancy, so this send cannot block.
					s.rungs[tier].queued.Add(1)
					s.setQueueDepth()
					work <- st
					continue
				}
				select {
				case work <- st:
				case <-ctx.Done():
					// The hand-off never happened: this task was accepted
					// but will never run. Account for it.
					rep := s.abandonReport(st)
					s.obs.record(rep)
					file(rep)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range work {
				r := s.rungs[st.tier]
				if admission.QueueDepth > 0 {
					r.queued.Add(-1)
					s.setQueueDepth()
				}
				if ctx.Err() != nil {
					// Shutting down: drain the queue with accounting instead
					// of either processing doomed tasks or dropping them
					// silently.
					rep := s.abandonReport(st)
					s.obs.record(rep)
					file(rep)
					continue
				}
				queued := time.Since(st.arrived)
				s.obs.taskStarted()
				began := time.Now()
				rep := s.process(st.req, st.tier)
				rep.Queued = queued
				rep.Process = time.Since(began)
				s.obs.taskFinished()
				r.ewma.observe(rep.Process)
				s.obs.record(rep)
				file(rep)
			}
		}()
	}
	wg.Wait()

	sortReports(reports)
	return reports
}

// admit picks the rung an arriving task is served at, or returns why it is
// shed. The predicted queue wait W sums every rung's queued tasks at that
// rung's service-time EWMA over the workers. With N rungs the task takes the
// first rung r < N−1 with W ≤ MaxQueueWait·(r+1)/N, else the last rung if
// W ≤ MaxQueueWait; otherwise, or on a full queue, it is shed. Only the
// feeder goroutine calls it, so the depth reads cannot race another
// admission; workers may decrement depths concurrently, which only makes the
// estimate conservative.
func (s *Service) admit(a AdmissionConfig) (int, error) {
	var depth int64
	var wait float64
	for _, r := range s.rungs {
		d := r.queued.Load()
		depth += d
		wait += float64(d) * r.ewma.value()
	}
	if int(depth) >= a.QueueDepth {
		return 0, fmt.Errorf("admission queue full (%d tasks)", depth)
	}
	if a.MaxQueueWait <= 0 {
		return 0, nil
	}
	predicted := time.Duration(wait / float64(s.workers) * float64(time.Second))
	n := len(s.rungs)
	for i := 0; i < n-1; i++ {
		if predicted <= a.MaxQueueWait*time.Duration(i+1)/time.Duration(n) {
			return i, nil
		}
	}
	if predicted > a.MaxQueueWait {
		return 0, fmt.Errorf("predicted queue wait %s exceeds %s (depth %d)",
			predicted.Round(time.Millisecond), a.MaxQueueWait, depth)
	}
	return n - 1, nil
}

// queueDepth returns the admitted-but-not-started task count over all rungs.
func (s *Service) queueDepth() int64 {
	var n int64
	for _, r := range s.rungs {
		n += r.queued.Load()
	}
	return n
}

// shedReport builds the outcome=shed report for a rejected task. A shed
// task was never admitted, so it carries no tier.
func (s *Service) shedReport(req Request, reason error) Report {
	s.shed.Add(1)
	return Report{
		TaskID: req.TaskID,
		Size:   len(req.Data),
		Shed:   true,
		Err:    fmt.Errorf("lake: task %d: shed: %w", req.TaskID, reason),
	}
}

// abandonReport builds the outcome=abandoned report for an admitted task the
// shutdown overtook.
func (s *Service) abandonReport(st stamped) Report {
	s.abandoned.Add(1)
	return Report{
		TaskID:    st.req.TaskID,
		Size:      len(st.req.Data),
		Tier:      s.rungs[st.tier].name,
		Abandoned: true,
		Err:       fmt.Errorf("lake: task %d: abandoned at shutdown before processing", st.req.TaskID),
	}
}

// process runs one request through the full resilience pipeline: primary
// detector (deadline-bounded, attempted once), then the fallback detector,
// then the dead-letter report. A panicking detector is contained: the panic
// becomes an attempt error rather than killing the worker pool. The primary
// detector is the one serving the task's admission rung.
func (s *Service) process(req Request, tier int) Report {
	rep := Report{TaskID: req.TaskID, Size: len(req.Data), Tier: s.rungs[tier].name}
	res, primaryErr := s.attempt(s.rungs[tier].detector, req)
	if primaryErr == nil {
		fill(&rep, req, res)
		return rep
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
	rep.Detection = metrics.EvaluateDetection(req.Data, res.Noisy)
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
