// Package detect defines the interface every noisy-label detection method in
// this repository implements, plus the shared helpers for scoring a dataset
// under a model. The experiment harness treats ENLD and all baselines
// uniformly through this interface, which keeps the timing comparison of
// Fig. 8 apples-to-apples.
package detect

import (
	"slices"
	"time"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/nn"
)

// Result is the outcome of one noisy-label detection request.
type Result struct {
	// Noisy holds the IDs of samples detected as noisy (the set N; D̃_N in
	// the metrics of §V-A3); Clean holds the rest of the dataset (the set S).
	Noisy map[int]bool
	Clean map[int]bool
	// Meter records the analytic work performed and Process the wall-clock
	// time of this request (the paper's "process time").
	Meter   cost.Meter
	Process time.Duration
}

// NewResult returns an empty result with allocated sets.
func NewResult() *Result {
	return &Result{Noisy: make(map[int]bool), Clean: make(map[int]bool)}
}

// MarkNoisy files id as noisy.
func (r *Result) MarkNoisy(id int) {
	r.Noisy[id] = true
	delete(r.Clean, id)
}

// MarkClean files id as clean.
func (r *Result) MarkClean(id int) {
	r.Clean[id] = true
	delete(r.Noisy, id)
}

// SortedIDs lists the noisy and the clean IDs in ascending order: the
// deterministic form a result takes on the wire and on disk.
func (r *Result) SortedIDs() (noisy, clean []int) {
	return sortedKeys(r.Noisy), sortedKeys(r.Clean)
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Detector is a noisy-label detection method: given an incremental dataset
// D, it partitions D into clean and noisy subsets.
type Detector interface {
	Name() string
	Detect(d dataset.Set) (*Result, error)
}

// Scores caches the model outputs for a sample set: confidence vectors,
// features, predicted labels, max-confidences and entropies. Every detector
// starts from these, so computing them once per (model, set) pair avoids
// redundant forward passes.
//
// Confidences[i] and Features[i] are rows of flat buffers the Scores owns.
// A Scores is reusable: Fill overwrites it in place, so everything read from
// it — including row slices handed on to a sampling.Request — is valid until
// the next Fill of the *same* Scores and unaffected by any other. A caller
// needing two scored sets live at once keeps two Scores.
type Scores struct {
	Confidences [][]float64
	Features    [][]float64
	Predicted   []int
	MaxConf     []float64
	Entropy     []float64

	conf, feat mat.Matrix  // backing storage of Confidences / Features
	xs         [][]float64 // input row pointers of the set being scored
}

// Score runs the model over every sample of d and caches the outputs.
// It charges one forward pass per sample to meter (if non-nil).
func Score(model *nn.Network, d dataset.Set, meter *cost.Meter) *Scores {
	s := new(Scores)
	ev := model.BorrowEvaluator()
	s.Fill(ev, d, meter)
	ev.Release()
	return s
}

// ScoreParallel is Score. workers has no effect; it stays only because the
// benchmark harness still calls ScoreParallel, and ROADMAP 1(b) deletes it
// in the next benchmark change.
func ScoreParallel(model *nn.Network, d dataset.Set, meter *cost.Meter, workers int) *Scores {
	return Score(model, d, meter)
}

// Fill re-scores d through ev's network into s, reusing every buffer s
// already holds — a second Fill on a same-sized set allocates nothing. It
// charges one forward pass per sample to meter (if non-nil).
func (s *Scores) Fill(ev *nn.Evaluator, d dataset.Set, meter *cost.Meter) {
	s.xs = s.xs[:0]
	for _, smp := range d {
		s.xs = append(s.xs, smp.X)
	}
	ev.EvaluateInto(&s.conf, &s.feat, s.xs)
	s.Confidences = s.conf.AppendRows(s.Confidences[:0])
	s.Features = s.feat.AppendRows(s.Features[:0])
	if meter != nil {
		meter.ForwardPasses += int64(len(d))
	}
	s.Predicted = s.Predicted[:0]
	s.MaxConf = s.MaxConf[:0]
	s.Entropy = s.Entropy[:0]
	for _, conf := range s.Confidences {
		s.Predicted = append(s.Predicted, mat.ArgMax(conf))
		s.MaxConf = append(s.MaxConf, mat.Max(conf))
		s.Entropy = append(s.Entropy, mat.Entropy(conf))
	}
}

// Ambiguous returns the indices of d whose predicted label disagrees with
// the observed label — the set A of Definition 1. Samples with missing
// labels are always ambiguous (they have no observed label to agree with).
func Ambiguous(d dataset.Set, predicted []int) []int {
	var out []int
	for i, smp := range d {
		if smp.Observed == dataset.Missing || predicted[i] != smp.Observed {
			out = append(out, i)
		}
	}
	return out
}

// Agreeing returns the indices of d whose predicted label equals the
// observed label — the high-quality set H of Definition 1 when d is
// inventory data. Missing labels never agree.
func Agreeing(d dataset.Set, predicted []int) []int {
	var out []int
	for i, smp := range d {
		if smp.Observed != dataset.Missing && predicted[i] == smp.Observed {
			out = append(out, i)
		}
	}
	return out
}

// RestrictToLabels returns the samples of d whose observed label is in
// labels — the H' = {(x, ỹ) : ỹ ∈ label(D)} restriction of Algorithm 1.
func RestrictToLabels(d dataset.Set, labels map[int]bool) dataset.Set {
	out := make(dataset.Set, 0, len(d))
	for _, smp := range d {
		if smp.Observed != dataset.Missing && labels[smp.Observed] {
			out = append(out, smp)
		}
	}
	return out
}
