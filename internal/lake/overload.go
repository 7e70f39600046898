package lake

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"enld/internal/detect"
)

// AdmissionConfig bounds the service's admission queue and enables
// deadline-aware load shedding. The zero value keeps the legacy behaviour:
// an unbuffered hand-off channel whose backpressure blocks the submitter and
// no task is ever shed.
//
// With QueueDepth > 0 the service holds at most QueueDepth admitted-but-not-
// started tasks. On submit it estimates the new task's queue wait as
//
//	predicted = Σ_r depth_r × EWMA_r(service time) / workers
//
// where depth_r is how many queued tasks were admitted at rung r and EWMA_r
// tracks that rung's recent task wall-clock times (primary attempt and
// fallback included). Without a brownout ladder there is one rung and this is
// depth × EWMA / workers. A task whose predicted wait exceeds MaxQueueWait —
// its predicted start would already be past its deadline — is shed
// immediately (outcome=shed) instead of queued to time out: rejecting early
// costs the client one round trip; queueing a doomed task costs it the full
// deadline and poisons every task behind it. A full queue sheds likewise.
// With an N-rung ladder the same prediction also picks the rung: the first
// rung r < N−1 whose budget MaxQueueWait·(r+1)/N covers it, else the last.
type AdmissionConfig struct {
	// QueueDepth is the admission queue capacity. 0 disables bounded
	// admission and shedding entirely.
	QueueDepth int
	// MaxQueueWait sheds tasks whose predicted queue wait exceeds it. 0
	// leaves only queue-full shedding active.
	MaxQueueWait time.Duration
	// EWMAAlpha is the service-time smoothing factor in (0, 1]; higher
	// weights recent tasks more. Default 0.2.
	EWMAAlpha float64
	// InitialServiceTime seeds each rung's EWMA before any of its tasks
	// completes, so the very first predictions are not zero. Default 50ms.
	InitialServiceTime time.Duration
}

// normalized fills admission defaults and rejects nonsense.
func (a AdmissionConfig) normalized() (AdmissionConfig, error) {
	if a.QueueDepth < 0 || a.MaxQueueWait < 0 || a.InitialServiceTime < 0 {
		return a, fmt.Errorf("lake: negative admission field: %+v", a)
	}
	if a.EWMAAlpha < 0 || a.EWMAAlpha > 1 {
		return a, fmt.Errorf("lake: admission EWMA alpha %v outside (0, 1]", a.EWMAAlpha)
	}
	if a.EWMAAlpha == 0 {
		a.EWMAAlpha = 0.2
	}
	if a.InitialServiceTime == 0 {
		a.InitialServiceTime = 50 * time.Millisecond
	}
	return a, nil
}

// Validate reports whether the admission config is sound (the check applied
// when a policy is installed), without filling defaults.
func (a AdmissionConfig) Validate() error {
	_, err := a.normalized()
	return err
}

// ValidateBrownout reports whether a brownout ladder can run under this
// admission config. The ladder's rung is chosen from the predicted queue
// wait against MaxQueueWait, so both the bounded queue and the wait budget
// must be set.
func (a AdmissionConfig) ValidateBrownout() error {
	if a.QueueDepth <= 0 || a.MaxQueueWait <= 0 {
		return fmt.Errorf("lake: brownout needs a positive queue depth and max queue wait (got %d, %s)", a.QueueDepth, a.MaxQueueWait)
	}
	return nil
}

// serviceEWMA is a lock-free exponentially weighted moving average of task
// service times, in seconds, shared by the worker pool (writers) and the
// feeder (reader).
type serviceEWMA struct {
	alpha float64
	bits  uint64
}

func newServiceEWMA(alpha float64, seed time.Duration) *serviceEWMA {
	return &serviceEWMA{alpha: alpha, bits: math.Float64bits(seed.Seconds())}
}

// observe folds one completed task's service time into the average.
func (e *serviceEWMA) observe(d time.Duration) {
	s := d.Seconds()
	for {
		old := atomic.LoadUint64(&e.bits)
		next := math.Float64bits(e.alpha*s + (1-e.alpha)*math.Float64frombits(old))
		if atomic.CompareAndSwapUint64(&e.bits, old, next) {
			return
		}
	}
}

// value returns the current estimate in seconds.
func (e *serviceEWMA) value() float64 {
	return math.Float64frombits(atomic.LoadUint64(&e.bits))
}

// TierDetector is one rung of the brownout degradation ladder: a stable name
// (the {tier=...} label value in metrics and the key of per-tier SLO floors)
// and the detector serving that tier. Rung 0 is the full-quality primary;
// each later rung trades detection quality for speed. Admission picks a
// task's rung once (see AdmissionConfig) and the task keeps it.
type TierDetector struct {
	Name     string
	Detector detect.Detector
}

// Canonical tier names of the ENLD degradation ladder. A ladder is free to
// use other names; these are what the built-in constructors and the
// workload SLO examples use.
const (
	TierFull     = "full"
	TierFallback = "fallback"
)

// rung is one admission class of the running service: the detector serving
// it, its own service-time EWMA, and its admitted-but-not-started count.
// Without a ladder the service has exactly one unnamed rung.
type rung struct {
	name     string
	detector detect.Detector
	ewma     *serviceEWMA
	queued   atomic.Int64
}

// validateLadder rejects a degradation ladder the admission rule cannot
// serve: fewer than two rungs, a rung without a detector or a name, or two
// rungs sharing a name (the name is the {tier=...} label).
func validateLadder(ladder []TierDetector) error {
	if len(ladder) < 2 {
		return fmt.Errorf("lake: brownout ladder needs at least two tiers, got %d", len(ladder))
	}
	seen := make(map[string]bool, len(ladder))
	for i, r := range ladder {
		if r.Detector == nil {
			return fmt.Errorf("lake: brownout tier %d (%q) has a nil detector", i, r.Name)
		}
		if r.Name == "" {
			return fmt.Errorf("lake: brownout tier %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("lake: duplicate brownout tier name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}
