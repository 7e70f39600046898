package lake

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"enld/internal/detect"
)

// Policy configures the service's resilience behaviour. The zero value
// disables everything — no per-task deadline, no retries, no circuit
// breaker, no fallback — preserving the plain fail-fast path.
type Policy struct {
	// TaskTimeout bounds each detector attempt. A stuck detector becomes a
	// report error instead of a wedged worker; the abandoned attempt's
	// goroutine is left to finish in the background. A timed-out attempt
	// is not retried. 0 disables.
	TaskTimeout time.Duration
	// MaxRetries is how many extra primary attempts a transient failure
	// (fault.Error) earns before the task degrades or dead-letters. 0
	// disables retries.
	MaxRetries int
	// RetryBase is the first backoff delay; each retry doubles it, capped
	// at RetryMax, plus uniform jitter in [0, RetryBase) drawn from
	// RetrySeed. Defaults: 20ms base, 1s cap.
	RetryBase time.Duration
	RetryMax  time.Duration
	RetrySeed uint64
	// BreakerThreshold trips the circuit breaker after that many
	// consecutive primary-task failures; BreakerCooldown is how long the
	// breaker stays open before probing half-open recovery. Threshold 0
	// disables the breaker. Default cooldown: 1s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Fallback, when set, handles a task whose primary path failed (or was
	// skipped by an open breaker). Fallback results are flagged Degraded in
	// the report — never silently passed off as primary output.
	Fallback detect.Detector
	// Admission bounds the admission queue and enables deadline-aware load
	// shedding (see AdmissionConfig). The zero value keeps the legacy
	// unbounded, backpressuring behaviour.
	Admission AdmissionConfig
}

// normalized fills policy defaults.
func (p Policy) normalized() (Policy, error) {
	if p.TaskTimeout < 0 || p.MaxRetries < 0 || p.BreakerThreshold < 0 {
		return p, fmt.Errorf("lake: negative policy field: %+v", p)
	}
	var err error
	if p.Admission, err = p.Admission.normalized(); err != nil {
		return p, err
	}
	if p.RetryBase <= 0 {
		p.RetryBase = 20 * time.Millisecond
	}
	if p.RetryMax <= 0 {
		p.RetryMax = time.Second
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = time.Second
	}
	return p, nil
}

// backoff returns the delay before retry attempt (0-based): base·2^attempt
// capped at max. Jitter is added by the caller.
func (p Policy) backoff(attempt int) time.Duration {
	d := p.RetryBase
	for i := 0; i < attempt && d < p.RetryMax; i++ {
		d *= 2
	}
	if d > p.RetryMax {
		d = p.RetryMax
	}
	return d
}

// transientErr reports whether err is worth retrying: it marks itself
// transient (fault-injected or network-style hiccups). A per-task deadline
// expiry is not: Detect is deterministic for a given input, so a retry would
// redo the same work beside the abandoned attempt still running.
func transientErr(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// BreakerState is one of the circuit breaker's three states.
type BreakerState int

// Breaker states: Closed (primary serving normally), Open (primary
// bypassed, cooling down), HalfOpen (one probe allowed through).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Breaker is a circuit breaker over the primary detector. After threshold
// consecutive failures it opens: tasks skip the primary path (degrading to
// the fallback) until cooldown elapses, then a single half-open probe tests
// recovery — success closes the breaker, failure reopens it. It is safe for
// concurrent use by the service's workers.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool
	trips       int

	// now is the clock, swappable in tests.
	now func() time.Time
	// observers watch every state change, in registration order. Called
	// with the breaker lock held; keep them fast and non-reentrant.
	observers []func(from, to BreakerState)
}

// NewBreaker returns a closed breaker tripping after threshold consecutive
// failures and cooling down for cooldown before probing.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// OnTransition registers a state-change observer (e.g. a StatusTracker or
// ObserveBreaker's metric recorder). Observers accumulate: registering a
// second one does not displace the first.
func (b *Breaker) OnTransition(fn func(from, to BreakerState)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observers = append(b.observers, fn)
}

// State returns the current state, accounting for cooldown expiry.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Allow reports whether a primary attempt may proceed. While open it
// returns false until the cooldown elapses, then admits exactly one
// half-open probe at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Success records a successful primary task, closing a half-open breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	if b.state == BreakerHalfOpen {
		b.probing = false
		b.transition(BreakerClosed)
	}
}

// Failure records a failed primary task, opening the breaker when the
// consecutive-failure threshold is reached or a half-open probe fails.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	switch {
	case b.state == BreakerHalfOpen:
		b.probing = false
		b.open()
	case b.state == BreakerClosed && b.consecutive >= b.threshold:
		b.open()
	}
}

// open moves to BreakerOpen, stamping the cooldown clock. Callers hold mu.
func (b *Breaker) open() {
	b.openedAt = b.now()
	b.trips++
	b.transition(BreakerOpen)
}

// transition changes state and notifies the observers. Callers hold mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	b.state = to
	if from != to {
		for _, fn := range b.observers {
			fn(from, to)
		}
	}
}
