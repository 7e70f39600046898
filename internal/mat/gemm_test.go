package mat

import (
	"math"
	"testing"
)

// randMatrix fills a rows×cols matrix with deterministic pseudo-random values.
func randMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	rng.NormVec(m.Data, 0, 1)
	return m
}

// gemmSizes exercises full 4×4 tiles, partial edge tiles on both axes, tiny
// and empty shapes, and a k of zero.
var gemmSizes = []struct{ m, n, k int }{
	{4, 4, 4},
	{8, 12, 16},
	{5, 7, 3},
	{1, 1, 1},
	{3, 9, 5},
	{13, 6, 11},
	{4, 4, 1},
	{0, 4, 4},
	{4, 0, 4},
	{4, 4, 0},
	{64, 48, 128},
}

func TestGemmMatchesSequential(t *testing.T) {
	rng := NewRNG(11)
	for _, sz := range gemmSizes {
		A := randMatrix(rng, sz.m, sz.k)
		B := randMatrix(rng, sz.k, sz.n)
		C := randMatrix(rng, sz.m, sz.n)
		want := C.Clone()
		// Reference: each output element as a sequential k-loop starting
		// from the prior C value, increasing p.
		for i := 0; i < sz.m; i++ {
			for j := 0; j < sz.n; j++ {
				s := want.At(i, j)
				for p := 0; p < sz.k; p++ {
					s += A.At(i, p) * B.At(p, j)
				}
				want.Set(i, j, s)
			}
		}
		Gemm(C, A, B)
		for i := range C.Data {
			if C.Data[i] != want.Data[i] {
				t.Fatalf("Gemm(%dx%dx%d) differs from sequential reference at %d: %v != %v",
					sz.m, sz.n, sz.k, i, C.Data[i], want.Data[i])
			}
		}
	}
}

// TestGemmNTMatchesMulVec checks the forward-pass kernel against the exact
// per-sample path: with C zeroed first (as ForwardBatch does), row i of C must
// equal MulVec(B, A.Row(i)) bit for bit — both accumulate each element from
// zero in increasing k order.
func TestGemmNTMatchesMulVec(t *testing.T) {
	rng := NewRNG(23)
	for _, sz := range gemmSizes {
		A := randMatrix(rng, sz.m, sz.k)
		B := randMatrix(rng, sz.n, sz.k) // transposed operand
		C := NewMatrix(sz.m, sz.n)
		want := NewMatrix(sz.m, sz.n)
		for i := 0; i < sz.m; i++ {
			B.MulVec(want.Row(i), A.Row(i))
		}
		GemmNT(C, A, B)
		for i := range C.Data {
			if C.Data[i] != want.Data[i] {
				t.Fatalf("GemmNT(%dx%dx%d) differs from MulVec at %d: %v != %v",
					sz.m, sz.n, sz.k, i, C.Data[i], want.Data[i])
			}
		}
	}
}

// TestGemmTNMatchesAddOuter checks the weight-gradient kernel against a series
// of per-sample AddOuter rank-one updates in batch-row order.
func TestGemmTNMatchesAddOuter(t *testing.T) {
	rng := NewRNG(37)
	for _, sz := range gemmSizes {
		A := randMatrix(rng, sz.k, sz.m) // k batch rows of deltas
		B := randMatrix(rng, sz.k, sz.n) // k batch rows of activations
		C := randMatrix(rng, sz.m, sz.n)
		want := C.Clone()
		for p := 0; p < sz.k; p++ {
			want.AddOuter(1, A.Row(p), B.Row(p))
		}
		GemmTN(C, A, B)
		for i := range C.Data {
			if C.Data[i] != want.Data[i] {
				t.Fatalf("GemmTN(%dx%dx%d) differs from AddOuter at %d: %v != %v",
					sz.m, sz.n, sz.k, i, C.Data[i], want.Data[i])
			}
		}
	}
}

// TestGemmMatchesMulVecT checks the delta-backprop usage: with C zeroed first
// (as BackwardBatch does), row i of C += A·B must match MulVecT(B, A.Row(i))
// bit for bit — both accumulate each element from zero in increasing k order.
func TestGemmMatchesMulVecT(t *testing.T) {
	rng := NewRNG(41)
	for _, sz := range gemmSizes {
		A := randMatrix(rng, sz.m, sz.k)
		B := randMatrix(rng, sz.k, sz.n)
		C := NewMatrix(sz.m, sz.n)
		want := NewMatrix(sz.m, sz.n)
		for i := 0; i < sz.m; i++ {
			B.MulVecT(want.Row(i), A.Row(i))
		}
		Gemm(C, A, B)
		for i := range C.Data {
			if C.Data[i] != want.Data[i] {
				t.Fatalf("Gemm(%dx%dx%d) differs from MulVecT at %d: %v != %v",
					sz.m, sz.n, sz.k, i, C.Data[i], want.Data[i])
			}
		}
	}
}

// refEdgeNN and refEdgeTN are the per-element edge loops the tail kernels
// replaced: each output element a sequential p-loop from its prior value.
// They are the reference the tail kernels must reproduce bit for bit.
func refEdgeNN(C, A, B *Matrix, i0, i1, j0, j1, k int) {
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			s := C.At(i, j)
			for p := 0; p < k; p++ {
				s += A.At(i, p) * B.At(p, j)
			}
			C.Set(i, j, s)
		}
	}
}

func refEdgeTN(C, A, B *Matrix, i0, i1, j0, j1, k int) {
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			s := C.At(i, j)
			for p := 0; p < k; p++ {
				s += A.At(p, i) * B.At(p, j)
			}
			C.Set(i, j, s)
		}
	}
}

// specialMatrix fills a rows×cols matrix from one of three operand mixes:
// plain normals; normals laced with ±0, ±Inf, NaN and subnormals; and a
// finite mix of ±0, subnormals and tiny normals whose products underflow, so
// signed-zero and gradual-underflow rounding reach the outputs instead of
// drowning in NaN.
func specialMatrix(rng *RNG, rows, cols, mix int) *Matrix {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.5e-310}
	tiny := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -3e-311, 1e-160, -2e-160, 1.5, -0.75}
	m := randMatrix(rng, rows, cols)
	for i := range m.Data {
		switch r := rng.Float64(); {
		case mix == 1 && r < 0.08:
			m.Data[i] = specials[rng.Intn(len(specials))]
		case mix == 2:
			m.Data[i] = tiny[rng.Intn(len(tiny))]
		}
	}
	return m
}

// sameFloats reports the first index where got and want differ in bits,
// treating any two NaNs as equal (Go leaves NaN payloads unspecified), or -1.
func sameFloats(got, want []float64) int {
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// TestGemmEdgeMatchesPerElement pins the tail kernels against the
// per-element loops they replaced, on the blocks the row drivers hand them:
// a short row tail (1–3 rows) over a full width whose own column tail runs
// 0–7, and a full-height (4-row) column tail 1–7 wide, for k ∈ {1, 2, 3,
// 26, 64}, with the vector kernels on and off, on plain and special operands.
// The full products run through Gemm and GemmTN as well.
func TestGemmEdgeMatchesPerElement(t *testing.T) {
	rng := NewRNG(53)
	prev := simdGemm
	defer SetSIMD(prev)
	for _, simd := range []bool{false, true} {
		SetSIMD(simd)
		for mix := 0; mix < 3; mix++ {
			for _, k := range []int{1, 2, 3, 26, 64} {
				for rt := 1; rt <= 3; rt++ {
					for ct := 0; ct <= 7; ct++ {
						m, n := 4+rt, 16+ct
						A := specialMatrix(rng, m, k, mix)
						At := specialMatrix(rng, k, m, mix)
						B := specialMatrix(rng, k, n, mix)
						seed := specialMatrix(rng, m, n, mix)
						blocks := [][4]int{{4, m, 0, n}} // row tail
						if ct > 0 {
							blocks = append(blocks, [4]int{0, 4, n - ct, n}) // column tail
						}
						for _, bl := range blocks {
							check := func(name string, kern, ref func(C, A, B *Matrix, i0, i1, j0, j1, k int), A *Matrix) {
								got, want := seed.Clone(), seed.Clone()
								kern(got, A, B, bl[0], bl[1], bl[2], bl[3], k)
								ref(want, A, B, bl[0], bl[1], bl[2], bl[3], k)
								if i := sameFloats(got.Data, want.Data); i >= 0 {
									t.Fatalf("%s simd=%v mix=%d k=%d block %v of %dx%d: element %d = %v, per-element loop %v",
										name, simd, mix, k, bl, m, n, i, got.Data[i], want.Data[i])
								}
							}
							check("gemmEdgeNN", gemmEdgeNN, refEdgeNN, A)
							check("gemmEdgeTN", gemmEdgeTN, refEdgeTN, At)
						}
						for _, v := range []struct {
							name string
							run  func(C *Matrix)
							ref  func(C *Matrix)
						}{
							{"Gemm", func(C *Matrix) { Gemm(C, A, B) }, func(C *Matrix) { refEdgeNN(C, A, B, 0, m, 0, n, k) }},
							{"GemmTN", func(C *Matrix) { GemmTN(C, At, B) }, func(C *Matrix) { refEdgeTN(C, At, B, 0, m, 0, n, k) }},
						} {
							got, want := seed.Clone(), seed.Clone()
							v.run(got)
							v.ref(want)
							if i := sameFloats(got.Data, want.Data); i >= 0 {
								t.Fatalf("%s(%dx%dx%d) simd=%v mix=%d: element %d = %v, per-element loop %v",
									v.name, m, n, k, simd, mix, i, got.Data[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

func TestGemmDimensionPanics(t *testing.T) {
	a := NewMatrix(3, 4)
	b := NewMatrix(5, 2) // 4 != 5
	c := NewMatrix(3, 2)
	mustPanic(t, "Gemm mismatched k", func() { Gemm(c, a, b) })
	mustPanic(t, "GemmNT mismatched k", func() { GemmNT(c, a, b) })
	mustPanic(t, "GemmTN mismatched k", func() { GemmTN(c, a, b) })

	b2 := NewMatrix(4, 2)
	cBad := NewMatrix(2, 2) // wrong row count
	mustPanic(t, "Gemm wrong C rows", func() { Gemm(cBad, a, b2) })
}

func TestGemmAliasPanics(t *testing.T) {
	back := make([]float64, 32)
	a := &Matrix{Rows: 4, Cols: 4, Data: back[:16]}
	b := NewMatrix(4, 4)
	cAlias := &Matrix{Rows: 4, Cols: 4, Data: back[8:24]} // overlaps a's tail
	mustPanic(t, "Gemm aliased C/A", func() { Gemm(cAlias, a, b) })
	mustPanic(t, "GemmNT aliased C/A", func() { GemmNT(cAlias, a, b) })
	mustPanic(t, "GemmTN aliased C/A", func() { GemmTN(cAlias, a, b) })

	cAliasB := &Matrix{Rows: 4, Cols: 4, Data: b.Data}
	mustPanic(t, "Gemm aliased C/B", func() { Gemm(cAliasB, a, b) })
}

func TestGemmEmptyNoPanic(t *testing.T) {
	// Zero-dimension products must be no-ops, not panics.
	Gemm(&Matrix{}, &Matrix{}, &Matrix{})
	c := NewMatrix(2, 3)
	Gemm(c, &Matrix{Rows: 2, Cols: 0}, &Matrix{Rows: 0, Cols: 3})
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("empty Gemm modified C")
		}
	}
}
