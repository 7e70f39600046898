package nn

import (
	"fmt"

	"enld/internal/mat"
)

// BatchScratch holds the activation, pre-activation and delta matrices of a
// batched forward/backward pass: one row per sample, one matrix per layer.
// The zero value is ready to use; buffers grow to the largest batch seen and
// are reused afterwards, so steady-state batched passes allocate nothing.
//
// A BatchScratch belongs to one goroutine at a time. Concurrent batched
// passes against the same Network are safe with one scratch per goroutine:
// the forward/backward methods only read the network's parameters.
type BatchScratch struct {
	sizes                 []int
	capRows, capDeltaRows int

	// Backing storage at capRows rows; the matrices below are views of the
	// current batch size into it.
	actsBack, preBack, deltasBack [][]float64

	acts   []mat.Matrix // acts[0] is the packed input batch
	pre    []mat.Matrix
	deltas []mat.Matrix
	panels []mat.Matrix // per-layer packed Wᵀ, used when none are supplied
	rows   int
}

// Rows returns the batch size of the most recent pass.
func (s *BatchScratch) Rows() int { return s.rows }

// Logits returns the output-layer pre-activation matrix of the most recent
// pass: row r holds the logits of sample r. The view stays valid until the
// next pass through this scratch.
func (s *BatchScratch) Logits() *mat.Matrix { return &s.pre[len(s.pre)-1] }

// Features returns the feature matrix M̂(x,θ) of the most recent pass: row r
// holds the post-ReLU last-hidden-layer activations of sample r.
func (s *BatchScratch) Features() *mat.Matrix { return &s.acts[len(s.acts)-2] }

// ensure sizes the scratch for a rows-sized batch of network n, growing the
// backing storage only when the architecture changed or rows exceeds every
// previous batch. The delta matrices are only sized when deltas is set:
// inference-only scratch (an Evaluator's) never pays for them.
func (s *BatchScratch) ensure(n *Network, rows int, deltas bool) {
	L := len(n.sizes)
	same := len(s.sizes) == L
	if same {
		for i, v := range n.sizes {
			if s.sizes[i] != v {
				same = false
				break
			}
		}
	}
	if !same {
		s.sizes = append(s.sizes[:0], n.sizes...)
		s.capRows, s.capDeltaRows = 0, 0
		s.actsBack = make([][]float64, L)
		s.preBack = make([][]float64, L-1)
		s.deltasBack = make([][]float64, L-1)
		s.acts = make([]mat.Matrix, L)
		s.pre = make([]mat.Matrix, L-1)
		s.deltas = make([]mat.Matrix, L-1)
		s.panels = nil
	}
	if rows > s.capRows {
		for i, size := range s.sizes {
			s.actsBack[i] = make([]float64, rows*size)
			if i > 0 {
				s.preBack[i-1] = make([]float64, rows*size)
			}
		}
		s.capRows = rows
	}
	if deltas && rows > s.capDeltaRows {
		for i, size := range s.sizes[1:] {
			s.deltasBack[i] = make([]float64, rows*size)
		}
		s.capDeltaRows = rows
	}
	for i, size := range s.sizes {
		s.acts[i] = mat.Matrix{Rows: rows, Cols: size, Data: s.actsBack[i][:rows*size]}
		if i > 0 {
			s.pre[i-1] = mat.Matrix{Rows: rows, Cols: size, Data: s.preBack[i-1][:rows*size]}
			if deltas {
				s.deltas[i-1] = mat.Matrix{Rows: rows, Cols: size, Data: s.deltasBack[i-1][:rows*size]}
			}
		}
	}
	s.rows = rows
}

// packPanels packs Wᵀ for every layer into panels (growing the slice as
// needed, reusing the panel backing arrays). The panels are read-only during
// forward passes, so one packed set serves every batch chunk while the
// weights stay fixed.
func (n *Network) packPanels(panels *[]mat.Matrix) {
	for len(*panels) < len(n.Weights) {
		*panels = append(*panels, mat.Matrix{})
	}
	for l, w := range n.Weights {
		mat.PackNT(&(*panels)[l], w)
	}
}

// ForwardBatch runs the network on every input of xs in one pass: the inputs
// are packed row-major into a batch matrix, each weight matrix is packed
// once into a Wᵀ panel, and each layer is one row-blocked GEMM
// (Y += X·(Wᵀpanel)) followed by a batched bias add and ReLU. Results are
// bit-identical to per-sample forward calls — the GEMM kernels accumulate
// each output element with the same sequential k-loop MulVec uses (see
// internal/mat and DESIGN.md §4) — while loading each weight matrix once per
// batch instead of once per sample.
//
// The outputs stay in s: s.Logits() and s.Features() view the last pass.
func (n *Network) ForwardBatch(s *BatchScratch, xs [][]float64) {
	n.forwardBatch(s, xs, nil)
}

// forwardBatch is ForwardBatch over an optional prepacked Wᵀ panel set (one
// per layer, from packPanels) shared read-only across calls; nil packs the
// current weights into the scratch's own panels.
func (n *Network) forwardBatch(s *BatchScratch, xs [][]float64, panels []mat.Matrix) {
	s.ensure(n, len(xs), false)
	if panels == nil {
		n.packPanels(&s.panels)
		panels = s.panels
	}
	n.forwardRows(s, panels, xs, 0, len(xs))
}

// forwardRows runs rows [lo, hi) of the batch xs through every layer: it
// packs the inputs into s's input rows and leaves the rows' activations and
// pre-activations in s, which must already be sized for len(xs) rows. Every
// operation is row-local — each output element is one row's self-contained
// sequential k-loop against the read-only panels — so row ranges may run in
// any order, at any granularity and at any row offset of the scratch,
// without changing a bit of any row.
func (n *Network) forwardRows(s *BatchScratch, panels []mat.Matrix, xs [][]float64, lo, hi int) {
	in := &s.acts[0]
	for r := lo; r < hi; r++ {
		if len(xs[r]) != n.sizes[0] {
			panic(fmt.Sprintf("nn: batch input length %d, want %d", len(xs[r]), n.sizes[0]))
		}
		copy(in.Row(r), xs[r])
	}
	last := len(n.Weights) - 1
	for l := range n.Weights {
		out, dst := &s.pre[l], &s.acts[l+1]
		zeroRows(out, lo, hi)
		mat.GemmRows(out, &s.acts[l], &panels[l], lo, hi)
		for r := lo; r < hi; r++ {
			mat.Axpy(1, n.Biases[l], out.Row(r))
		}
		if l < last {
			reluRows(dst, out, lo, hi)
		} else {
			copyRows(dst, out, lo, hi)
		}
	}
}

// BackwardBatch accumulates into g the cross-entropy gradient of the whole
// batch (xs[r], targets[r]) and returns the summed loss. It is the batched
// counterpart of per-sample Backward calls in row order, bit-identical to
// them: the weight gradient is one GemmTN (gW += deltaᵀ·acts) whose
// sequential batch-row loop reproduces the per-sample AddOuter order, the
// bias gradient sums delta columns in row order, and the delta
// back-propagation is one row-blocked GEMM (dPrev = delta·W) matching
// MulVecT's accumulation order.
func (n *Network) BackwardBatch(s *BatchScratch, g *Grads, xs, targets [][]float64) float64 {
	if len(targets) != len(xs) {
		panic("nn: BackwardBatch xs/targets length mismatch")
	}
	s.ensure(n, len(xs), true)
	n.packPanels(&s.panels)
	n.forwardRows(s, s.panels, xs, 0, len(xs))
	return n.backwardRows(s, g, targets, 0, len(xs))
}

// backwardBatchChunked is the trainer's gradient engine: it accumulates into
// g, which the caller has cleared, the gradient of the batch (xs[r],
// targets[r]) reduced over the fixed gradChunk partition in chunk order (see
// reduceChunks), and returns the summed loss. The Wᵀ panels are packed once
// per batch; each chunk then runs forward through every layer, computes its
// loss and output deltas and runs backward through every layer in one fused
// pass over a chunk-sized scratch.
//
// The result is bit-identical to the perSample reference (per-sample
// Backward calls in row order, reduced by the same reduceChunks):
//
//   - the forward pass, the output deltas softmax(logits) − target, the
//     delta back-propagation and the ReLU gating are all row-local (see
//     forwardRows), so running them chunk by chunk changes no activation or
//     delta bit;
//   - a chunk's weight gradient is a GemmTN over exactly the chunk's
//     delta/activation rows, walking them in increasing row order like a
//     sequence of per-sample AddOuter calls, and its bias gradient and loss
//     sum the same rows in the same order.
func (n *Network) backwardBatchChunked(s *BatchScratch, g, tmp *Grads, xs, targets [][]float64) float64 {
	if len(targets) != len(xs) {
		panic("nn: BackwardBatch xs/targets length mismatch")
	}
	s.ensure(n, min(gradChunk, len(xs)), true)
	n.packPanels(&s.panels)
	return reduceChunks(len(xs), g, tmp, func(dst *Grads, lo, hi int) float64 {
		n.forwardRows(s, s.panels, xs[lo:hi], 0, hi-lo)
		return n.backwardRows(s, dst, targets[lo:hi], 0, hi-lo)
	})
}

// backwardRows accumulates into g the cross-entropy gradient of rows
// [lo, hi), whose forward pass must already be in s, and returns their
// summed loss. Rows are visited in increasing order throughout, and only
// rows [lo, hi) of s are written.
func (n *Network) backwardRows(s *BatchScratch, g *Grads, targets [][]float64, lo, hi int) float64 {
	classes := n.Classes()
	last := len(n.Weights) - 1
	logits, dOut := &s.pre[last], &s.deltas[last]
	var loss float64
	for r := lo; r < hi; r++ {
		target := targets[r]
		if len(target) != classes {
			panic("nn: BackwardBatch target length mismatch")
		}
		lrow, drow := logits.Row(r), dOut.Row(r)
		lse := mat.SoftmaxLSE(drow, lrow)
		for j, tv := range target {
			if tv > 0 {
				loss += tv * (lse - lrow[j])
			}
			drow[j] -= tv
		}
	}
	for l := last; l >= 0; l-- {
		delta := &s.deltas[l]
		dv := rowView(delta, lo, hi)
		av := rowView(&s.acts[l], lo, hi)
		mat.GemmTN(g.Weights[l], &dv, &av)
		addColSums(g.Biases[l], delta, lo, hi)
		if l > 0 {
			prev := &s.deltas[l-1]
			zeroRows(prev, lo, hi)
			mat.GemmRows(prev, delta, n.Weights[l], lo, hi)
			// ReLU derivative gates on the pre-activation of layer l.
			reluGate(prev, &s.pre[l-1], lo, hi)
		}
	}
	return loss
}

// LossBatch computes the per-sample cross-entropy losses of the batch into
// out (len(xs) entries), bit-identical to per-sample Loss calls.
func (n *Network) LossBatch(s *BatchScratch, xs, targets [][]float64, out []float64) {
	if len(targets) != len(xs) || len(out) != len(xs) {
		panic("nn: LossBatch length mismatch")
	}
	n.forwardBatch(s, xs, nil)
	logits := s.Logits()
	for r := range xs {
		out[r] = rowLoss(logits.Row(r), targets[r])
	}
}

// rowLoss is the cross-entropy of one logits row against its target
// distribution.
func rowLoss(lrow, target []float64) float64 {
	lse := mat.LogSumExp(lrow)
	var loss float64
	for c, t := range target {
		if t > 0 {
			loss += t * (lse - lrow[c])
		}
	}
	return loss
}

// rowView returns a matrix viewing rows [lo, hi) of m, sharing its backing
// array. GEMMs over a row view walk exactly those rows, in order.
func rowView(m *mat.Matrix, lo, hi int) mat.Matrix {
	return mat.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// zeroRows clears rows [lo, hi) of m.
func zeroRows(m *mat.Matrix, lo, hi int) {
	clear(m.Data[lo*m.Cols : hi*m.Cols])
}

// copyRows copies rows [lo, hi) of src into dst over equal-shaped matrices.
func copyRows(dst, src *mat.Matrix, lo, hi int) {
	copy(dst.Data[lo*dst.Cols:hi*dst.Cols], src.Data[lo*src.Cols:hi*src.Cols])
}

// reluRows writes dst = max(src, 0) element-wise over rows [lo, hi) of
// equal-shaped matrices.
func reluRows(dst, src *mat.Matrix, lo, hi int) {
	mat.Relu(dst.Data[lo*dst.Cols:hi*dst.Cols], src.Data[lo*src.Cols:hi*src.Cols])
}

// reluGate zeroes every delta in rows [lo, hi) whose matching
// pre-activation is <= 0.
func reluGate(delta, pre *mat.Matrix, lo, hi int) {
	mat.ReluGate(delta.Data[lo*delta.Cols:hi*delta.Cols], pre.Data[lo*pre.Cols:hi*pre.Cols])
}

// addColSums accumulates dst[j] += sum over rows [lo, hi) of m[r][j],
// sweeping rows in increasing order so each element's addition order matches
// a per-sample accumulation loop.
func addColSums(dst []float64, m *mat.Matrix, lo, hi int) {
	if len(dst) != m.Cols {
		panic("nn: addColSums length mismatch")
	}
	for r := lo; r < hi; r++ {
		mat.Axpy(1, m.Row(r), dst)
	}
}
