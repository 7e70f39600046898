// Package cost provides deterministic work accounting for the detection
// methods, so the efficiency comparisons of Fig. 8 and Fig. 12 can be
// reported both as wall-clock time (hardware-dependent) and as analytic
// counts (hardware-independent).
//
// The paper's headline efficiency claim — ENLD processes an incremental
// dataset 3.65×–4.97× faster than TopoFilter — comes from training-set size:
// ENLD fine-tunes on k·|A| contrastive samples while TopoFilter trains on
// the full label-related inventory subset. Counting sample visits exposes
// that ratio independent of the host machine.
package cost

import (
	"fmt"
	"time"
)

// Meter accumulates work counters. The zero value is ready to use.
// Meters are not safe for concurrent use; each detector run owns one.
type Meter struct {
	// ForwardPasses counts inference-only forward evaluations.
	ForwardPasses int64
	// TrainSampleVisits counts forward+backward passes during training —
	// the dominant cost in every method here.
	TrainSampleVisits int64
	// ParamUpdates counts optimizer steps (mini-batches applied).
	ParamUpdates int64
	// KNNQueries counts k-nearest-neighbour queries.
	KNNQueries int64
}

// Add merges other's counts into m.
func (m *Meter) Add(other Meter) {
	m.ForwardPasses += other.ForwardPasses
	m.TrainSampleVisits += other.TrainSampleVisits
	m.ParamUpdates += other.ParamUpdates
	m.KNNQueries += other.KNNQueries
}

// Total returns a single scalar work figure: training visits dominate, with
// forward passes weighted at a third (backprop roughly triples the cost of a
// forward evaluation) and k-NN queries at a hundredth.
func (m *Meter) Total() float64 {
	return float64(m.TrainSampleVisits) +
		float64(m.ForwardPasses)/3 +
		float64(m.KNNQueries)/100
}

// String renders the counters compactly.
func (m *Meter) String() string {
	return fmt.Sprintf("train=%d fwd=%d updates=%d knn=%d",
		m.TrainSampleVisits, m.ForwardPasses, m.ParamUpdates, m.KNNQueries)
}

// Stopwatch measures elapsed wall-clock time.
type Stopwatch struct{ start time.Time }

// StartStopwatch begins timing.
func StartStopwatch() *Stopwatch { return &Stopwatch{start: time.Now()} }

// Elapsed returns the time since the stopwatch started.
func (s *Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
