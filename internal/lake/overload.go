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
//	predicted = depth × EWMA(service time) / workers
//
// where depth is the current queue length and the EWMA tracks recent task
// wall-clock times (attempts, backoff and fallback included). A task whose
// predicted wait exceeds MaxQueueWait — its predicted start would already be
// past its deadline — is shed immediately (outcome=shed) instead of queued
// to time out: rejecting early costs the client one round trip; queueing a
// doomed task costs it the full deadline and poisons every task behind it.
// A full queue sheds likewise.
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
	// InitialServiceTime seeds the EWMA before any task completes, so the
	// very first predictions are not zero. Default 50ms.
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
// each later rung trades detection quality for speed.
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

// BrownoutConfig tunes the brownout controller: when the service is
// saturated it steps the active tier down the ladder (cheaper detection)
// and when pressure clears it recovers tier-by-tier. Pressure is read from
// two signals — admission queue depth and the p95 of task service time over
// the last evaluation window — with an explicit hysteresis band between the
// high and low watermarks so an oscillating load cannot flap the tier.
type BrownoutConfig struct {
	// QueueHigh/QueueLow are the queue-depth watermarks: depth ≥ QueueHigh
	// counts as pressure, depth ≤ QueueLow as calm, anything between holds
	// the current tier. QueueHigh 0 disables the depth signal.
	QueueHigh int
	QueueLow  int
	// P95High/P95Low are the task-latency watermarks over the last window.
	// P95High 0 disables the latency signal.
	P95High time.Duration
	P95Low  time.Duration
	// Interval is the evaluation cadence. Default 250ms.
	Interval time.Duration
	// EscalateAfter is how many consecutive pressured evaluations trigger
	// one step down the ladder (default 2); RecoverAfter is how many
	// consecutive calm evaluations trigger one step back up (default 4 —
	// recovery is deliberately slower than escalation).
	EscalateAfter int
	RecoverAfter  int
}

// normalized fills brownout defaults and rejects nonsense.
func (b BrownoutConfig) normalized() (BrownoutConfig, error) {
	if b.QueueHigh < 0 || b.QueueLow < 0 || b.P95High < 0 || b.P95Low < 0 {
		return b, fmt.Errorf("lake: negative brownout watermark: %+v", b)
	}
	if b.QueueHigh == 0 && b.P95High == 0 {
		return b, fmt.Errorf("lake: brownout needs at least one pressure signal (QueueHigh or P95High)")
	}
	if b.QueueHigh > 0 && b.QueueLow > b.QueueHigh {
		return b, fmt.Errorf("lake: brownout queue watermarks inverted (low %d > high %d)", b.QueueLow, b.QueueHigh)
	}
	if b.P95High > 0 && b.P95Low > b.P95High {
		return b, fmt.Errorf("lake: brownout p95 watermarks inverted (low %s > high %s)", b.P95Low, b.P95High)
	}
	if b.Interval <= 0 {
		b.Interval = 250 * time.Millisecond
	}
	if b.EscalateAfter <= 0 {
		b.EscalateAfter = 2
	}
	if b.RecoverAfter <= 0 {
		b.RecoverAfter = 4
	}
	return b, nil
}

// Validate reports whether the brownout config is sound (the check applied
// by SetBrownout), without filling defaults.
func (b BrownoutConfig) Validate() error {
	_, err := b.normalized()
	return err
}

// brownoutFSM is the pure tier state machine, separated from clocks and
// metrics so its transition table is unit-testable. One observe call
// corresponds to one evaluation tick.
type brownoutFSM struct {
	cfg   BrownoutConfig
	tiers int
	tier  int
	hot   int // consecutive pressured ticks
	cool  int // consecutive calm ticks
}

func newBrownoutFSM(cfg BrownoutConfig, tiers int) *brownoutFSM {
	return &brownoutFSM{cfg: cfg, tiers: tiers}
}

// observe feeds one evaluation window (current queue depth, window p95 task
// seconds — NaN when no task completed in the window) and returns the active
// tier plus whether this tick changed it.
//
// The hysteresis contract: pressure requires a signal at or above its high
// watermark; calm requires every enabled signal at or below its low
// watermark; readings inside the band reset both streaks and hold the tier.
// Escalation and recovery both move exactly one rung per trigger, and each
// move resets both streaks, so a sustained condition steps through tiers at
// EscalateAfter (or RecoverAfter) ticks per rung instead of jumping.
func (m *brownoutFSM) observe(depth int, p95 float64) (tier int, changed bool) {
	pressured := (m.cfg.QueueHigh > 0 && depth >= m.cfg.QueueHigh) ||
		(m.cfg.P95High > 0 && !math.IsNaN(p95) && p95 >= m.cfg.P95High.Seconds())
	calm := (m.cfg.QueueHigh == 0 || depth <= m.cfg.QueueLow) &&
		(m.cfg.P95High == 0 || math.IsNaN(p95) || p95 <= m.cfg.P95Low.Seconds())

	switch {
	case pressured:
		m.cool = 0
		m.hot++
		if m.hot >= m.cfg.EscalateAfter && m.tier < m.tiers-1 {
			m.tier++
			m.hot = 0
			return m.tier, true
		}
	case calm:
		m.hot = 0
		m.cool++
		if m.cool >= m.cfg.RecoverAfter && m.tier > 0 {
			m.tier--
			m.cool = 0
			return m.tier, true
		}
	default:
		// Inside the hysteresis band: hold the tier, restart both streaks.
		m.hot, m.cool = 0, 0
	}
	return m.tier, false
}

// brownout is the controller wired into a running service: the ladder, the
// FSM, the atomic active tier the feeder stamps tasks with, and transition
// accounting.
type brownout struct {
	ladder []TierDetector
	cfg    BrownoutConfig
	fsm    *brownoutFSM

	tier        atomic.Int32
	maxTier     atomic.Int32
	tierChanges atomic.Int64

	// OnTierChange, when set, observes every tier transition (from, to are
	// ladder indexes). Called from the controller goroutine.
	onTierChange func(from, to int)
}

func newBrownout(ladder []TierDetector, cfg BrownoutConfig) (*brownout, error) {
	if len(ladder) < 2 {
		return nil, fmt.Errorf("lake: brownout ladder needs at least two tiers, got %d", len(ladder))
	}
	seen := make(map[string]bool, len(ladder))
	for i, rung := range ladder {
		if rung.Detector == nil {
			return nil, fmt.Errorf("lake: brownout tier %d (%q) has a nil detector", i, rung.Name)
		}
		if rung.Name == "" {
			return nil, fmt.Errorf("lake: brownout tier %d has no name", i)
		}
		if seen[rung.Name] {
			return nil, fmt.Errorf("lake: duplicate brownout tier name %q", rung.Name)
		}
		seen[rung.Name] = true
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return &brownout{
		ladder: append([]TierDetector(nil), ladder...),
		cfg:    cfg,
		fsm:    newBrownoutFSM(cfg, len(ladder)),
	}, nil
}

// activeTier returns the tier the feeder stamps new admissions with.
func (b *brownout) activeTier() int {
	if b == nil {
		return 0
	}
	return int(b.tier.Load())
}

// step runs one FSM evaluation and publishes a change to the atomic tier.
// Only the controller goroutine calls it.
func (b *brownout) step(depth int, p95 float64) (from, to int, changed bool) {
	from = int(b.tier.Load())
	to, changed = b.fsm.observe(depth, p95)
	if !changed {
		return from, to, false
	}
	b.tier.Store(int32(to))
	if int32(to) > b.maxTier.Load() {
		b.maxTier.Store(int32(to))
	}
	b.tierChanges.Add(1)
	if b.onTierChange != nil {
		b.onTierChange(from, to)
	}
	return from, to, true
}
