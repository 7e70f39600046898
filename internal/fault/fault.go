// Package fault provides a deterministic, seed-driven chaos wrapper around
// any detect.Detector. It injects the failure modes a production data-lake
// service must survive — injected errors, panics, added latency and
// corrupted incremental shards — so every resilience path in internal/lake
// (deadline, fallback degradation, dead-lettering) is exercisable in tests
// and in cmd/lakesim without depending on real flakiness.
//
// Determinism contract: the fault decisions of call k depend only on the
// configured seed and k. Every call draws one uniform variate per fault
// class under a lock, regardless of which faults fire, so the decision
// stream never shifts when rates change for a different class. Under a
// concurrent worker pool the assignment of call indices to tasks varies
// with scheduling, but the multiset of injected faults over n calls is
// reproducible from the seed alone — the property controlled-perturbation
// benchmarking needs.
package fault

import (
	"fmt"
	"sync"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/mat"
)

// Config sets the injection rates. All rates are probabilities in [0, 1];
// the zero value injects nothing and passes every call through unchanged.
type Config struct {
	// Seed drives all fault decisions; a fixed seed reproduces the fault
	// sequence exactly.
	Seed uint64
	// FailRate is the probability a call returns an injected error instead
	// of invoking the inner detector.
	FailRate float64
	// PanicRate is the probability a call panics, exercising the service's
	// panic containment.
	PanicRate float64
	// SlowRate is the probability a call sleeps for Latency before
	// proceeding, exercising per-task deadlines.
	SlowRate float64
	// Latency is the delay added to slowed calls (default 50ms when
	// SlowRate > 0).
	Latency time.Duration
	// CorruptRate is the probability the shard handed to the inner
	// detector has a fraction of its observed labels scrambled — the
	// detector still runs, but on damaged input.
	CorruptRate float64
	// CorruptFrac is the fraction of samples whose labels are scrambled in
	// a corrupted shard (default 0.5).
	CorruptFrac float64
}

// Error is an injected failure. It fails the call it was drawn for, and the
// lake service attempts each task once, so it takes the same fallback →
// dead-letter path as any real detector error.
type Error struct {
	// Call is the 1-based injector call index that failed.
	Call int
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected failure (call %d)", e.Call)
}

// Stats counts what the injector has done so far.
type Stats struct {
	Calls       int
	Failures    int
	Panics      int
	Slowdowns   int
	Corruptions int
}

// Injector wraps a detector and injects faults per Config. It is safe for
// concurrent Detect calls (the lake service runs detectors from a worker
// pool).
type Injector struct {
	inner detect.Detector
	cfg   Config

	mu    sync.Mutex
	rng   *mat.RNG
	stats Stats
}

// New returns an injector wrapping inner. Rates outside [0, 1] and a nil
// inner detector are rejected.
func New(inner detect.Detector, cfg Config) (*Injector, error) {
	if inner == nil {
		return nil, fmt.Errorf("fault: nil inner detector")
	}
	for _, r := range []struct {
		name string
		rate float64
	}{
		{"fail", cfg.FailRate},
		{"panic", cfg.PanicRate},
		{"slow", cfg.SlowRate},
		{"corrupt", cfg.CorruptRate},
	} {
		if r.rate < 0 || r.rate > 1 {
			return nil, fmt.Errorf("fault: %s rate %v outside [0, 1]", r.name, r.rate)
		}
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 50 * time.Millisecond
	}
	if cfg.CorruptFrac <= 0 || cfg.CorruptFrac > 1 {
		cfg.CorruptFrac = 0.5
	}
	return &Injector{inner: inner, cfg: cfg, rng: mat.NewRNG(cfg.Seed)}, nil
}

// Name implements detect.Detector.
func (in *Injector) Name() string { return "fault(" + in.inner.Name() + ")" }

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Detect implements detect.Detector: it draws this call's fault decisions,
// applies them, and delegates to the inner detector when the call survives.
func (in *Injector) Detect(d dataset.Set) (*detect.Result, error) {
	in.mu.Lock()
	in.stats.Calls++
	call := in.stats.Calls
	slow := in.rng.Float64() < in.cfg.SlowRate
	corrupt := in.rng.Float64() < in.cfg.CorruptRate
	fail := in.rng.Float64() < in.cfg.FailRate
	panicNow := in.rng.Float64() < in.cfg.PanicRate
	if slow {
		in.stats.Slowdowns++
	}
	if fail {
		in.stats.Failures++
	} else if panicNow {
		in.stats.Panics++
	} else if corrupt {
		in.stats.Corruptions++
	}
	in.mu.Unlock()

	if slow {
		time.Sleep(in.cfg.Latency)
	}
	if fail {
		return nil, &Error{Call: call}
	}
	if panicNow {
		panic(fmt.Sprintf("fault: injected panic (call %d)", call))
	}
	if corrupt {
		d = corruptShard(d, in.cfg.Seed^(uint64(call)*0x9e3779b97f4a7c15), in.cfg.CorruptFrac)
	}
	return in.inner.Detect(d)
}

// corruptShard returns a copy of d with roughly frac of its observed labels
// scrambled by swapping labels between random sample pairs. Swapping keeps
// every label in-domain, so the damage models realistic in-lake corruption
// (rows attributed to the wrong record) rather than type errors.
func corruptShard(d dataset.Set, seed uint64, frac float64) dataset.Set {
	if len(d) < 2 {
		return d
	}
	out := d.Clone()
	rng := mat.NewRNG(seed)
	swaps := int(float64(len(out)) * frac / 2)
	if swaps < 1 {
		swaps = 1
	}
	for s := 0; s < swaps; s++ {
		i := rng.Intn(len(out))
		j := rng.Intn(len(out))
		out[i].Observed, out[j].Observed = out[j].Observed, out[i].Observed
	}
	return out
}
