package nn

import (
	"slices"

	"enld/internal/mat"
)

// batchChunk is the fixed batch-chunk size of batch inference: each weight
// matrix is loaded once per 64 samples.
const batchChunk = 64

// Evaluator is a reusable batch-inference workspace bound to one network:
// one BatchScratch and the per-layer Wᵀ panels. Every call repacks the
// panels in place from the network's current weights (so the network may be
// trained between calls), splits the inputs into batchChunk pieces, runs one
// blocked-GEMM forward pass per piece and writes each input's results into
// that input's slot of caller-owned flat buffers. The batched kernels are
// bit-identical to the per-sample forward pass, so results equal a
// per-sample loop.
//
// After the first call on a given input size nothing is allocated: the
// scratch, the panels and the outputs are all reused. An Evaluator holds
// about 0.4 MB for the default architecture, so how long it lives decides
// what that buys: passes over a fixed model borrow one from the network's
// pool (BorrowEvaluator), which the runtime empties after two idle GCs;
// core.ENLD keeps its own for one Detect call over θ′ and drops it.
//
// An Evaluator is for one goroutine at a time. Outputs never alias its
// internals: a later call disturbs nothing an earlier call returned, except
// through output buffers the caller itself passes again.
type Evaluator struct {
	net     *Network
	scratch BatchScratch
	panels  []mat.Matrix

	// The current call's arguments, read by chunk and cleared when the call
	// returns.
	xs, ts     [][]float64
	preds      []int
	losses     []float64
	conf, feat *mat.Matrix
}

// NewEvaluator returns an inference workspace for net.
func NewEvaluator(net *Network) *Evaluator {
	return &Evaluator{net: net}
}

// BorrowEvaluator takes an idle Evaluator bound to n from n's pool, or a new
// one when the pool is empty. Pass it back with Release once its outputs
// are read; one whose pass panicked is simply dropped.
func (n *Network) BorrowEvaluator() *Evaluator {
	if e, ok := n.evals.Get().(*Evaluator); ok {
		return e
	}
	return NewEvaluator(n)
}

// Release returns e to its network's pool. e must not be used afterwards.
func (e *Evaluator) Release() { e.net.evals.Put(e) }

// run executes one pass over xs with whatever outputs the caller set.
func (e *Evaluator) run(xs [][]float64) {
	e.xs = xs
	e.net.packPanels(&e.panels)
	for lo := 0; lo < len(xs); lo += batchChunk {
		e.chunk(lo, min(lo+batchChunk, len(xs)))
	}
	e.xs, e.ts, e.preds, e.losses, e.conf, e.feat = nil, nil, nil, nil, nil, nil
}

// chunk forwards inputs [lo, hi) through the scratch and fills the requested
// outputs for exactly those inputs.
func (e *Evaluator) chunk(lo, hi int) {
	s := &e.scratch
	e.net.forwardBatch(s, e.xs[lo:hi], e.panels)
	logits, feats := s.Logits(), s.Features()
	for r := 0; r < hi-lo; r++ {
		lrow := logits.Row(r)
		if e.preds != nil {
			e.preds[lo+r] = mat.ArgMax(lrow)
		}
		if e.conf != nil {
			mat.Softmax(e.conf.Row(lo+r), lrow)
		}
		if e.feat != nil {
			copy(e.feat.Row(lo+r), feats.Row(r))
		}
		if e.losses != nil {
			e.losses[lo+r] = rowLoss(lrow, e.ts[lo+r])
		}
	}
}

// PredictInto writes argmax M(x,θ) of every input into dst, reallocating it
// only when its capacity is short, and returns dst[:len(xs)].
func (e *Evaluator) PredictInto(dst []int, xs [][]float64) []int {
	dst = slices.Grow(dst[:0], len(xs))[:len(xs)]
	e.preds = dst
	e.run(xs)
	return dst
}

// EvaluateInto computes the confidence vectors M(x,θ) into conf and the
// feature vectors M̂(x,θ) into feat, one row per input; each is resized to
// len(xs) rows reusing its backing array. Either may be nil to skip it.
func (e *Evaluator) EvaluateInto(conf, feat *mat.Matrix, xs [][]float64) {
	if conf != nil {
		conf.Resize(len(xs), e.net.Classes())
	}
	if feat != nil {
		feat.Resize(len(xs), e.net.FeatureDim())
	}
	e.conf, e.feat = conf, feat
	e.run(xs)
}

// LossesInto writes the cross-entropy loss of every (xs[i], targets[i]) pair
// into dst, reallocating it only when its capacity is short, and returns
// dst[:len(xs)].
func (e *Evaluator) LossesInto(dst []float64, xs, targets [][]float64) []float64 {
	if len(targets) != len(xs) {
		panic("nn: LossesInto xs/targets length mismatch")
	}
	dst = slices.Grow(dst[:0], len(xs))[:len(xs)]
	e.losses, e.ts = dst, targets
	e.run(xs)
	return dst
}

// The helpers below are the one-shot forms: each runs a single pass through
// a borrowed Evaluator and returns fresh outputs, so concurrent callers
// share the model without cloning it.

// ConfidencesBatch computes M(x,θ) for every input, one confidence vector
// per input (rows of one shared backing array).
func (n *Network) ConfidencesBatch(xs [][]float64) [][]float64 {
	var conf mat.Matrix
	e := n.BorrowEvaluator()
	e.EvaluateInto(&conf, nil, xs)
	e.Release()
	return conf.AppendRows(make([][]float64, 0, len(xs)))
}

// PredictBatch returns argmax M(x,θ) for every input. workers has no
// effect; it stays only because the benchmark harness still passes it, and
// ROADMAP 1(b) deletes it in the next benchmark change.
func (n *Network) PredictBatch(xs [][]float64, workers int) []int {
	e := n.BorrowEvaluator()
	preds := e.PredictInto(nil, xs)
	e.Release()
	return preds
}

// LossesBatch computes the cross-entropy loss of every (xs[i], targets[i])
// pair, the batched counterpart of a per-sample Loss loop.
func (n *Network) LossesBatch(xs, targets [][]float64) []float64 {
	e := n.BorrowEvaluator()
	losses := e.LossesInto(nil, xs, targets)
	e.Release()
	return losses
}
