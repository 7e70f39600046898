package mat

import (
	"sync"
	"unsafe"
)

// Blocked matrix-matrix kernels.
//
// The three Gemm variants below are the batched counterparts of MulVec,
// MulVecT and AddOuter: one call computes a whole batch of samples against a
// weight matrix, loading each weight tile once per batch instead of once per
// sample, with a register tile of accumulators giving the independent
// floating-point chains a single dot product cannot.
//
// Determinism contract (DESIGN.md §4): every output element is accumulated by
// a fully sequential innermost k-loop — C[i,j] starts from its prior value
// and adds the products A[i,p]·B[p,j] in strictly increasing p order, exactly
// the order Dot, Axpy-series (MulVecT) and AddOuter-series use. Batched
// forward/backward passes built on these kernels are therefore bit-identical
// to their per-sample counterparts: the blocking only changes which elements
// are computed together, never the order of the additions inside one element.
//
// Two consequences of that contract shape the fast paths in this file:
//
//   - Row ranges compose. Output rows never share an accumulator, so
//     computing C in arbitrary disjoint row ranges ([i0,i1) via GemmRows /
//     GemmTNRows) produces bit-identical results to one full-matrix call.
//     That is what licenses the batched passes' row chunks across the worker
//     pool (nn/forwardbatch.go): each row is single-writer and its k-loop
//     stays sequential no matter which worker runs it.
//
//   - The A·Bᵀ product is computed by repacking Bᵀ once (PackNT) and running
//     the A·B kernel on the packed panel. Element (i,j) still sums
//     A[i,p]·B[j,p] in increasing p order — packing moves bytes, not the
//     addition order — and the packed layout is the one the SIMD micro-kernel
//     (gemm_amd64.s) can vectorize across j without touching per-element
//     accumulation order.
//
// All variants accumulate (C += ...); callers wanting a plain product zero C
// first. C must not share backing storage with A or B (the kernels read
// operand tiles while writing C), which is enforced with a panic.

// gemmTile is the register-tile edge: kernels compute gemmTile×gemmTile
// output elements at once, holding the partial sums in local variables.
const gemmTile = 4

// Gemm computes C += A·B where A is (m×k), B is (k×n) and C is (m×n).
// It panics on dimension mismatch or when C aliases A or B.
func Gemm(C, A, B *Matrix) {
	if A.Cols != B.Rows || C.Rows != A.Rows || C.Cols != B.Cols {
		panic("mat: Gemm dimension mismatch")
	}
	checkGemmAlias(C, A, B)
	gemmRowsNN(C, A, B, 0, C.Rows)
}

// GemmRows computes rows [i0,i1) of C += A·B. A disjoint cover of [0,m) by
// GemmRows calls — in any order, from any goroutine — produces bit-identical
// results to one Gemm call: rows never share accumulators and each element's
// k-loop is sequential regardless of the split.
// It panics on dimension mismatch, an invalid row range, or aliasing.
func GemmRows(C, A, B *Matrix, i0, i1 int) {
	if A.Cols != B.Rows || C.Rows != A.Rows || C.Cols != B.Cols {
		panic("mat: GemmRows dimension mismatch")
	}
	if i0 < 0 || i1 > C.Rows || i0 > i1 {
		panic("mat: GemmRows invalid row range")
	}
	checkGemmAlias(C, A, B)
	gemmRowsNN(C, A, B, i0, i1)
}

// ntPanels recycles the scratch panels GemmNT packs Bᵀ into.
var ntPanels = sync.Pool{New: func() any { return new(Matrix) }}

// GemmNT computes C += A·Bᵀ where A is (m×k), B is (n×k) and C is (m×n).
// Both operands are walked along contiguous rows, which makes this the
// natural forward-pass kernel: Y += X·Wᵀ with row-major X and W.
//
// Internally B is repacked as Bᵀ (a k×n panel) and the product runs through
// the A·B row kernel; see PackNT for why results are unchanged. Callers that
// reuse one B across many calls (a weight matrix across batch chunks) should
// PackNT once themselves and call GemmRows directly.
// It panics on dimension mismatch or when C aliases A or B.
func GemmNT(C, A, B *Matrix) {
	if A.Cols != B.Cols || C.Rows != A.Rows || C.Cols != B.Rows {
		panic("mat: GemmNT dimension mismatch")
	}
	checkGemmAlias(C, A, B)
	if C.Rows == 0 || C.Cols == 0 || A.Cols == 0 {
		return
	}
	bt := ntPanels.Get().(*Matrix)
	PackNT(bt, B)
	gemmRowsNN(C, A, bt, 0, C.Rows)
	ntPanels.Put(bt)
}

// PackNT resizes dst to (B.Cols × B.Rows) and fills dst[p,j] = B[j,p], i.e.
// dst = Bᵀ. A GemmNT product then becomes GemmRows against the panel:
// element (i,j) still accumulates A[i,p]·B[j,p] in strictly increasing p
// order — transposition moves bytes, never the order of additions — so
// PackNT+GemmRows is bit-identical to GemmNT. dst's backing array is reused
// when it has capacity.
//
// B is read four rows at a time, so each p writes four contiguous panel
// elements instead of one strided one.
func PackNT(dst, B *Matrix) {
	if dst == B {
		panic("mat: PackNT destination aliases operand")
	}
	k, n := B.Cols, B.Rows
	dst.Resize(k, n)
	dd := dst.Data
	j := 0
	for ; j+4 <= n; j += 4 {
		b0, b1, b2, b3 := B.Row(j)[:k], B.Row(j + 1)[:k], B.Row(j + 2)[:k], B.Row(j + 3)[:k]
		off := j
		for p := 0; p < k; p++ {
			d := dd[off : off+4 : off+4]
			d[0], d[1], d[2], d[3] = b0[p], b1[p], b2[p], b3[p]
			off += n
		}
	}
	for ; j < n; j++ {
		for p, v := range B.Row(j) {
			dd[p*n+j] = v
		}
	}
}

// GemmTN computes C += Aᵀ·B where A is (k×m), B is (k×n) and C is (m×n).
// With k indexing batch rows this is the weight-gradient kernel:
// gW += deltaᵀ·X sums each sample's rank-one update in batch-row order,
// matching a sequence of per-sample AddOuter calls bit for bit.
// It panics on dimension mismatch or when C aliases A or B.
func GemmTN(C, A, B *Matrix) {
	if A.Rows != B.Rows || C.Rows != A.Cols || C.Cols != B.Cols {
		panic("mat: GemmTN dimension mismatch")
	}
	checkGemmAlias(C, A, B)
	gemmRowsTN(C, A, B, 0, C.Rows)
}

// GemmTNRows computes rows [i0,i1) of C += Aᵀ·B (row i of C reads column i
// of A). Like GemmRows, any disjoint cover of [0,m) is bit-identical to one
// GemmTN call.
// It panics on dimension mismatch, an invalid row range, or aliasing.
func GemmTNRows(C, A, B *Matrix, i0, i1 int) {
	if A.Rows != B.Rows || C.Rows != A.Cols || C.Cols != B.Cols {
		panic("mat: GemmTNRows dimension mismatch")
	}
	if i0 < 0 || i1 > C.Rows || i0 > i1 {
		panic("mat: GemmTNRows invalid row range")
	}
	checkGemmAlias(C, A, B)
	gemmRowsTN(C, A, B, i0, i1)
}

// gemmRowsNN computes rows [i0,i1) of C += A·B, dispatching to the AVX2
// micro-kernel when available and falling back to the register-tiled scalar
// kernel otherwise. Both paths add the same products in the same per-element
// order.
func gemmRowsNN(C, A, B *Matrix, i0, i1 int) {
	n, k := C.Cols, A.Cols
	if i0 >= i1 || n == 0 || k == 0 {
		return
	}
	if simdGemm && n >= simdMinCols {
		gemmRowsNNSIMD(C, A, B, i0, i1)
		return
	}
	nt := n &^ (gemmTile - 1)
	i := i0
	for ; i+gemmTile <= i1; i += gemmTile {
		for j := 0; j < nt; j += gemmTile {
			gemmTileNN(C, A, B, i, j, k)
		}
		if nt < n {
			gemmEdgeNN(C, A, B, i, i+gemmTile, nt, n, k)
		}
	}
	if i < i1 {
		gemmEdgeNN(C, A, B, i, i1, 0, n, k)
	}
}

// gemmRowsTN computes rows [i0,i1) of C += Aᵀ·B with the same dispatch rule
// as gemmRowsNN.
func gemmRowsTN(C, A, B *Matrix, i0, i1 int) {
	n, k := C.Cols, A.Rows
	if i0 >= i1 || n == 0 || k == 0 {
		return
	}
	if simdGemm && n >= simdMinCols {
		gemmRowsTNSIMD(C, A, B, i0, i1)
		return
	}
	nt := n &^ (gemmTile - 1)
	i := i0
	for ; i+gemmTile <= i1; i += gemmTile {
		for j := 0; j < nt; j += gemmTile {
			gemmTileTN(C, A, B, i, j, k)
		}
		if nt < n {
			gemmEdgeTN(C, A, B, i, i+gemmTile, nt, n, k)
		}
	}
	if i < i1 {
		gemmEdgeTN(C, A, B, i, i1, 0, n, k)
	}
}

// gemmTileNN is the 4×4 register micro-kernel of Gemm: sixteen independent
// accumulator chains, each a sequential sum over p. Operand rows are trimmed
// to [:k] so the compiler can prove p < len and drop the bounds checks. The
// p-loop is unrolled — each accumulator still adds its products in strictly
// increasing p order.
func gemmTileNN(C, A, B *Matrix, i0, j0, k int) {
	a0, a1, a2, a3 := A.Row(i0)[:k], A.Row(i0 + 1)[:k], A.Row(i0 + 2)[:k], A.Row(i0 + 3)[:k]
	c0 := C.Row(i0)[j0 : j0+4 : j0+4]
	c1 := C.Row(i0 + 1)[j0 : j0+4 : j0+4]
	c2 := C.Row(i0 + 2)[j0 : j0+4 : j0+4]
	c3 := C.Row(i0 + 3)[j0 : j0+4 : j0+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	c20, c21, c22, c23 := c2[0], c2[1], c2[2], c2[3]
	c30, c31, c32, c33 := c3[0], c3[1], c3[2], c3[3]
	bd, bc := B.Data, B.Cols
	boff := j0
	p := 0
	for ; p+3 < k; p += 4 {
		br := bd[boff : boff+4 : boff+4]
		bs := bd[boff+bc : boff+bc+4 : boff+bc+4]
		bt := bd[boff+2*bc : boff+2*bc+4 : boff+2*bc+4]
		bu := bd[boff+3*bc : boff+3*bc+4 : boff+3*bc+4]
		boff += 4 * bc
		b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
		e0, e1, e2, e3 := bs[0], bs[1], bs[2], bs[3]
		f0, f1, f2, f3 := bt[0], bt[1], bt[2], bt[3]
		g0, g1, g2, g3 := bu[0], bu[1], bu[2], bu[3]
		av, aw, ax, ay := a0[p], a0[p+1], a0[p+2], a0[p+3]
		c00 += av * b0
		c00 += aw * e0
		c00 += ax * f0
		c00 += ay * g0
		c01 += av * b1
		c01 += aw * e1
		c01 += ax * f1
		c01 += ay * g1
		c02 += av * b2
		c02 += aw * e2
		c02 += ax * f2
		c02 += ay * g2
		c03 += av * b3
		c03 += aw * e3
		c03 += ax * f3
		c03 += ay * g3
		av, aw, ax, ay = a1[p], a1[p+1], a1[p+2], a1[p+3]
		c10 += av * b0
		c10 += aw * e0
		c10 += ax * f0
		c10 += ay * g0
		c11 += av * b1
		c11 += aw * e1
		c11 += ax * f1
		c11 += ay * g1
		c12 += av * b2
		c12 += aw * e2
		c12 += ax * f2
		c12 += ay * g2
		c13 += av * b3
		c13 += aw * e3
		c13 += ax * f3
		c13 += ay * g3
		av, aw, ax, ay = a2[p], a2[p+1], a2[p+2], a2[p+3]
		c20 += av * b0
		c20 += aw * e0
		c20 += ax * f0
		c20 += ay * g0
		c21 += av * b1
		c21 += aw * e1
		c21 += ax * f1
		c21 += ay * g1
		c22 += av * b2
		c22 += aw * e2
		c22 += ax * f2
		c22 += ay * g2
		c23 += av * b3
		c23 += aw * e3
		c23 += ax * f3
		c23 += ay * g3
		av, aw, ax, ay = a3[p], a3[p+1], a3[p+2], a3[p+3]
		c30 += av * b0
		c30 += aw * e0
		c30 += ax * f0
		c30 += ay * g0
		c31 += av * b1
		c31 += aw * e1
		c31 += ax * f1
		c31 += ay * g1
		c32 += av * b2
		c32 += aw * e2
		c32 += ax * f2
		c32 += ay * g2
		c33 += av * b3
		c33 += aw * e3
		c33 += ax * f3
		c33 += ay * g3
	}
	for ; p+1 < k; p += 2 {
		br := bd[boff : boff+4 : boff+4]
		bs := bd[boff+bc : boff+bc+4 : boff+bc+4]
		boff += 2 * bc
		b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
		e0, e1, e2, e3 := bs[0], bs[1], bs[2], bs[3]
		av, aw := a0[p], a0[p+1]
		c00 += av * b0
		c00 += aw * e0
		c01 += av * b1
		c01 += aw * e1
		c02 += av * b2
		c02 += aw * e2
		c03 += av * b3
		c03 += aw * e3
		av, aw = a1[p], a1[p+1]
		c10 += av * b0
		c10 += aw * e0
		c11 += av * b1
		c11 += aw * e1
		c12 += av * b2
		c12 += aw * e2
		c13 += av * b3
		c13 += aw * e3
		av, aw = a2[p], a2[p+1]
		c20 += av * b0
		c20 += aw * e0
		c21 += av * b1
		c21 += aw * e1
		c22 += av * b2
		c22 += aw * e2
		c23 += av * b3
		c23 += aw * e3
		av, aw = a3[p], a3[p+1]
		c30 += av * b0
		c30 += aw * e0
		c31 += av * b1
		c31 += aw * e1
		c32 += av * b2
		c32 += aw * e2
		c33 += av * b3
		c33 += aw * e3
	}
	if p < k {
		br := bd[boff : boff+4 : boff+4]
		b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
		av := a0[p]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = a1[p]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = a2[p]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = a3[p]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
	c2[0], c2[1], c2[2], c2[3] = c20, c21, c22, c23
	c3[0], c3[1], c3[2], c3[3] = c30, c31, c32, c33
}

// gemmEdgeNN computes the partial tiles of C += A·B: rows [i0,i1) ×
// columns [j0,j1), a block short of the register tile in at least one
// direction. Every element still adds A[i,p]·B[p,j] in strictly increasing
// p with one multiply and one add; only which elements advance together
// differs from a per-element loop, which would be latency-bound on a single
// add chain:
//
//   - a full-height (four-row) column tail runs four columns at a time on
//     the 4×4 tile, then two at a time on eight independent accumulators,
//     then an odd last column on four, reading the A rows contiguously;
//   - a short row tail runs one Axpy per (row, p) over the contiguous
//     B-row segment.
func gemmEdgeNN(C, A, B *Matrix, i0, i1, j0, j1, k int) {
	bd, bc := B.Data, B.Cols
	if i1-i0 < gemmTile {
		for i := i0; i < i1; i++ {
			cr := C.Row(i)[j0:j1]
			for p, a := range A.Row(i)[:k] {
				Axpy(a, bd[p*bc+j0:p*bc+j1], cr)
			}
		}
		return
	}
	j := j0
	for ; j+gemmTile <= j1; j += gemmTile {
		gemmTileNN(C, A, B, i0, j, k)
	}
	a0, a1, a2, a3 := A.Row(i0)[:k], A.Row(i0 + 1)[:k], A.Row(i0 + 2)[:k], A.Row(i0 + 3)[:k]
	c0, c1, c2, c3 := C.Row(i0), C.Row(i0+1), C.Row(i0+2), C.Row(i0+3)
	for ; j+1 < j1; j += 2 {
		s00, s01 := c0[j], c0[j+1]
		s10, s11 := c1[j], c1[j+1]
		s20, s21 := c2[j], c2[j+1]
		s30, s31 := c3[j], c3[j+1]
		off := j
		for p := 0; p < k; p++ {
			bp := bd[off : off+2 : off+2]
			b0, b1 := bp[0], bp[1]
			off += bc
			v := a0[p]
			s00 += v * b0
			s01 += v * b1
			v = a1[p]
			s10 += v * b0
			s11 += v * b1
			v = a2[p]
			s20 += v * b0
			s21 += v * b1
			v = a3[p]
			s30 += v * b0
			s31 += v * b1
		}
		c0[j], c0[j+1] = s00, s01
		c1[j], c1[j+1] = s10, s11
		c2[j], c2[j+1] = s20, s21
		c3[j], c3[j+1] = s30, s31
	}
	if j < j1 {
		s0, s1, s2, s3 := c0[j], c1[j], c2[j], c3[j]
		off := j
		for p := 0; p < k; p++ {
			b := bd[off]
			off += bc
			s0 += a0[p] * b
			s1 += a1[p] * b
			s2 += a2[p] * b
			s3 += a3[p] * b
		}
		c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
	}
}

// gemmTileTN is the 4×4 micro-kernel of GemmTN: per p both operand tiles are
// four consecutive elements of one row. The p-loop is unrolled — each
// accumulator still adds its products in strictly increasing p order.
func gemmTileTN(C, A, B *Matrix, i0, j0, k int) {
	c0 := C.Row(i0)[j0 : j0+4 : j0+4]
	c1 := C.Row(i0 + 1)[j0 : j0+4 : j0+4]
	c2 := C.Row(i0 + 2)[j0 : j0+4 : j0+4]
	c3 := C.Row(i0 + 3)[j0 : j0+4 : j0+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	c20, c21, c22, c23 := c2[0], c2[1], c2[2], c2[3]
	c30, c31, c32, c33 := c3[0], c3[1], c3[2], c3[3]
	ad, ac := A.Data, A.Cols
	bd, bc := B.Data, B.Cols
	aoff, boff := i0, j0
	p := 0
	for ; p+3 < k; p += 4 {
		ar := ad[aoff : aoff+4 : aoff+4]
		br := bd[boff : boff+4 : boff+4]
		as := ad[aoff+ac : aoff+ac+4 : aoff+ac+4]
		bs := bd[boff+bc : boff+bc+4 : boff+bc+4]
		at := ad[aoff+2*ac : aoff+2*ac+4 : aoff+2*ac+4]
		bt := bd[boff+2*bc : boff+2*bc+4 : boff+2*bc+4]
		au := ad[aoff+3*ac : aoff+3*ac+4 : aoff+3*ac+4]
		bu := bd[boff+3*bc : boff+3*bc+4 : boff+3*bc+4]
		aoff += 4 * ac
		boff += 4 * bc
		b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
		e0, e1, e2, e3 := bs[0], bs[1], bs[2], bs[3]
		f0, f1, f2, f3 := bt[0], bt[1], bt[2], bt[3]
		g0, g1, g2, g3 := bu[0], bu[1], bu[2], bu[3]
		av, aw, ax, ay := ar[0], as[0], at[0], au[0]
		c00 += av * b0
		c00 += aw * e0
		c00 += ax * f0
		c00 += ay * g0
		c01 += av * b1
		c01 += aw * e1
		c01 += ax * f1
		c01 += ay * g1
		c02 += av * b2
		c02 += aw * e2
		c02 += ax * f2
		c02 += ay * g2
		c03 += av * b3
		c03 += aw * e3
		c03 += ax * f3
		c03 += ay * g3
		av, aw, ax, ay = ar[1], as[1], at[1], au[1]
		c10 += av * b0
		c10 += aw * e0
		c10 += ax * f0
		c10 += ay * g0
		c11 += av * b1
		c11 += aw * e1
		c11 += ax * f1
		c11 += ay * g1
		c12 += av * b2
		c12 += aw * e2
		c12 += ax * f2
		c12 += ay * g2
		c13 += av * b3
		c13 += aw * e3
		c13 += ax * f3
		c13 += ay * g3
		av, aw, ax, ay = ar[2], as[2], at[2], au[2]
		c20 += av * b0
		c20 += aw * e0
		c20 += ax * f0
		c20 += ay * g0
		c21 += av * b1
		c21 += aw * e1
		c21 += ax * f1
		c21 += ay * g1
		c22 += av * b2
		c22 += aw * e2
		c22 += ax * f2
		c22 += ay * g2
		c23 += av * b3
		c23 += aw * e3
		c23 += ax * f3
		c23 += ay * g3
		av, aw, ax, ay = ar[3], as[3], at[3], au[3]
		c30 += av * b0
		c30 += aw * e0
		c30 += ax * f0
		c30 += ay * g0
		c31 += av * b1
		c31 += aw * e1
		c31 += ax * f1
		c31 += ay * g1
		c32 += av * b2
		c32 += aw * e2
		c32 += ax * f2
		c32 += ay * g2
		c33 += av * b3
		c33 += aw * e3
		c33 += ax * f3
		c33 += ay * g3
	}
	for ; p+1 < k; p += 2 {
		ar := ad[aoff : aoff+4 : aoff+4]
		br := bd[boff : boff+4 : boff+4]
		as := ad[aoff+ac : aoff+ac+4 : aoff+ac+4]
		bs := bd[boff+bc : boff+bc+4 : boff+bc+4]
		aoff += 2 * ac
		boff += 2 * bc
		b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
		e0, e1, e2, e3 := bs[0], bs[1], bs[2], bs[3]
		av, aw := ar[0], as[0]
		c00 += av * b0
		c00 += aw * e0
		c01 += av * b1
		c01 += aw * e1
		c02 += av * b2
		c02 += aw * e2
		c03 += av * b3
		c03 += aw * e3
		av, aw = ar[1], as[1]
		c10 += av * b0
		c10 += aw * e0
		c11 += av * b1
		c11 += aw * e1
		c12 += av * b2
		c12 += aw * e2
		c13 += av * b3
		c13 += aw * e3
		av, aw = ar[2], as[2]
		c20 += av * b0
		c20 += aw * e0
		c21 += av * b1
		c21 += aw * e1
		c22 += av * b2
		c22 += aw * e2
		c23 += av * b3
		c23 += aw * e3
		av, aw = ar[3], as[3]
		c30 += av * b0
		c30 += aw * e0
		c31 += av * b1
		c31 += aw * e1
		c32 += av * b2
		c32 += aw * e2
		c33 += av * b3
		c33 += aw * e3
	}
	if p < k {
		ar := ad[aoff : aoff+4 : aoff+4]
		br := bd[boff : boff+4 : boff+4]
		b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
		av := ar[0]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = ar[1]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = ar[2]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = ar[3]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
	c2[0], c2[1], c2[2], c2[3] = c20, c21, c22, c23
	c3[0], c3[1], c3[2], c3[3] = c30, c31, c32, c33
}

// gemmEdgeTN computes the partial tiles of C += Aᵀ·B with one Axpy per
// (row, p): row i of C adds A[p,i] times the contiguous B-row segment, in
// strictly increasing p, so every element keeps its sequential one-multiply,
// one-add chain while the whole segment advances together.
func gemmEdgeTN(C, A, B *Matrix, i0, i1, j0, j1, k int) {
	ad, ac := A.Data, A.Cols
	bd, bc := B.Data, B.Cols
	for i := i0; i < i1; i++ {
		cr := C.Row(i)[j0:j1]
		for p := 0; p < k; p++ {
			Axpy(ad[p*ac+i], bd[p*bc+j0:p*bc+j1], cr)
		}
	}
}

// checkGemmAlias panics when the destination shares backing storage with
// either operand. The kernels re-read operand tiles while C is being written,
// so aliasing would silently corrupt the product.
func checkGemmAlias(C, A, B *Matrix) {
	if sliceOverlap(C.Data, A.Data) || sliceOverlap(C.Data, B.Data) {
		panic("mat: Gemm destination aliases an operand")
	}
}

// sliceOverlap reports whether a and b share any element.
func sliceOverlap[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	aLo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	aHi := aLo + uintptr(len(a))*unsafe.Sizeof(a[0])
	bLo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	bHi := bLo + uintptr(len(b))*unsafe.Sizeof(b[0])
	return aLo < bHi && bLo < aHi
}
