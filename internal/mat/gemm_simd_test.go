package mat

import (
	"testing"

	"enld/internal/parallel"
)

// simdSizes stresses the vector kernel's edge handling: rows mod 4, columns
// mod 8, k parities, and shapes on both sides of the parallel work
// threshold.
var simdSizes = []struct{ m, n, k int }{
	{4, 8, 1},
	{4, 8, 16},
	{8, 16, 32},
	{5, 9, 7},
	{7, 100, 64},
	{12, 20, 9},
	{13, 23, 31},
	{64, 100, 33},
	{64, 128, 48},
	{32, 96, 128},
	{1, 8, 4},
	{3, 64, 5},
}

// TestGemmSIMDMatchesGeneric pins the central claim of gemm_amd64.s: the
// AVX2 kernels produce bit-identical results to the pure-Go kernels for all
// three products, because both add the same products in the same per-element
// order with the same two roundings per step.
func TestGemmSIMDMatchesGeneric(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no SIMD kernels on this CPU")
	}
	rng := NewRNG(101)
	for _, sz := range simdSizes {
		A := randMatrix(rng, sz.m, sz.k)
		B := randMatrix(rng, sz.k, sz.n)
		Bt := randMatrix(rng, sz.n, sz.k)
		At := randMatrix(rng, sz.k, sz.m)
		seed := randMatrix(rng, sz.m, sz.n)

		type variant struct {
			name string
			run  func(C *Matrix)
		}
		variants := []variant{
			{"Gemm", func(C *Matrix) { Gemm(C, A, B) }},
			{"GemmNT", func(C *Matrix) { GemmNT(C, A, Bt) }},
			{"GemmTN", func(C *Matrix) { GemmTN(C, At, B) }},
		}
		for _, v := range variants {
			want := seed.Clone()
			prev := SetSIMD(false)
			v.run(want)
			SetSIMD(true)
			got := seed.Clone()
			v.run(got)
			SetSIMD(prev)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s(%dx%dx%d): SIMD differs from generic at %d: %v != %v",
						v.name, sz.m, sz.n, sz.k, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestGemmRowsCoverMatchesFull asserts any disjoint row cover — uneven
// splits included — reproduces the full-matrix product bit for bit, for both
// the NN and TN row kernels.
func TestGemmRowsCoverMatchesFull(t *testing.T) {
	rng := NewRNG(211)
	splits := [][]int{{0, 1}, {0, 3, 5}, {0, 4, 8, 12}, {0, 7}, {0, 2, 11}}
	for _, sz := range simdSizes {
		A := randMatrix(rng, sz.m, sz.k)
		B := randMatrix(rng, sz.k, sz.n)
		At := randMatrix(rng, sz.k, sz.m)
		seed := randMatrix(rng, sz.m, sz.n)

		wantNN := seed.Clone()
		Gemm(wantNN, A, B)
		wantTN := seed.Clone()
		GemmTN(wantTN, At, B)

		for _, cuts := range splits {
			gotNN := seed.Clone()
			gotTN := seed.Clone()
			for i, lo := range cuts {
				hi := sz.m
				if i+1 < len(cuts) {
					hi = cuts[i+1]
				}
				if lo > sz.m {
					lo = sz.m
				}
				if hi > sz.m {
					hi = sz.m
				}
				GemmRows(gotNN, A, B, lo, hi)
				GemmTNRows(gotTN, At, B, lo, hi)
			}
			for i := range gotNN.Data {
				if gotNN.Data[i] != wantNN.Data[i] {
					t.Fatalf("GemmRows cover %v (%dx%dx%d) differs at %d", cuts, sz.m, sz.n, sz.k, i)
				}
				if gotTN.Data[i] != wantTN.Data[i] {
					t.Fatalf("GemmTNRows cover %v (%dx%dx%d) differs at %d", cuts, sz.m, sz.n, sz.k, i)
				}
			}
		}
	}
}

// TestPackNT pins the panel layout GemmNT and the forward pass rely on:
// dst = Bᵀ exactly, with buffer reuse across differently-shaped packs, for
// every remainder of n mod 4 left by the four-rows-at-a-time loop.
func TestPackNT(t *testing.T) {
	rng := NewRNG(31)
	var panel Matrix
	for _, sz := range []struct{ n, k int }{{3, 5}, {8, 8}, {1, 7}, {16, 4}, {6, 5}, {13, 9}, {26, 64}, {7, 0}} {
		B := randMatrix(rng, sz.n, sz.k)
		PackNT(&panel, B)
		if panel.Rows != sz.k || panel.Cols != sz.n {
			t.Fatalf("PackNT shape = %dx%d, want %dx%d", panel.Rows, panel.Cols, sz.k, sz.n)
		}
		for p := 0; p < sz.k; p++ {
			for j := 0; j < sz.n; j++ {
				if panel.At(p, j) != B.At(j, p) {
					t.Fatalf("PackNT(%dx%d)[%d,%d] != B[%d,%d]", sz.n, sz.k, p, j, j, p)
				}
			}
		}
	}
	mustPanic(t, "PackNT aliased", func() { PackNT(&panel, &panel) })
}

// TestParallelGemmBitIdentical is the tentpole differential test: all three
// parallel products must be bit-identical to their sequential counterparts
// at worker counts 1, 2 and 8, on shapes below and above the sequential
// fallback threshold.
func TestParallelGemmBitIdentical(t *testing.T) {
	rng := NewRNG(307)
	for _, sz := range simdSizes {
		A := randMatrix(rng, sz.m, sz.k)
		B := randMatrix(rng, sz.k, sz.n)
		Bt := randMatrix(rng, sz.n, sz.k)
		At := randMatrix(rng, sz.k, sz.m)
		seed := randMatrix(rng, sz.m, sz.n)

		wantNN := seed.Clone()
		Gemm(wantNN, A, B)
		wantNT := seed.Clone()
		GemmNT(wantNT, A, Bt)
		wantTN := seed.Clone()
		GemmTN(wantTN, At, B)

		for _, workers := range []int{1, 2, 8} {
			pool := parallel.New(workers)
			gotNN := seed.Clone()
			ParallelGemm(pool, gotNN, A, B)
			gotNT := seed.Clone()
			ParallelGemmNT(pool, gotNT, A, Bt)
			gotTN := seed.Clone()
			ParallelGemmTN(pool, gotTN, At, B)
			for i := range gotNN.Data {
				if gotNN.Data[i] != wantNN.Data[i] {
					t.Fatalf("ParallelGemm(%dx%dx%d) w=%d differs at %d", sz.m, sz.n, sz.k, workers, i)
				}
				if gotNT.Data[i] != wantNT.Data[i] {
					t.Fatalf("ParallelGemmNT(%dx%dx%d) w=%d differs at %d", sz.m, sz.n, sz.k, workers, i)
				}
				if gotTN.Data[i] != wantTN.Data[i] {
					t.Fatalf("ParallelGemmTN(%dx%dx%d) w=%d differs at %d", sz.m, sz.n, sz.k, workers, i)
				}
			}
		}
	}
}

// TestParallelGemmNilPool pins the sequential fallback for a nil pool.
func TestParallelGemmNilPool(t *testing.T) {
	rng := NewRNG(401)
	A := randMatrix(rng, 8, 8)
	B := randMatrix(rng, 8, 8)
	want := NewMatrix(8, 8)
	Gemm(want, A, B)
	got := NewMatrix(8, 8)
	ParallelGemm(nil, got, A, B)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("nil-pool ParallelGemm differs at %d", i)
		}
	}
}

// TestGemmRowsPanics covers the row-range validation.
func TestGemmRowsPanics(t *testing.T) {
	a := NewMatrix(4, 4)
	b := NewMatrix(4, 4)
	c := NewMatrix(4, 4)
	mustPanic(t, "GemmRows bad range", func() { GemmRows(c, a, b, 3, 2) })
	mustPanic(t, "GemmRows range past end", func() { GemmRows(c, a, b, 0, 5) })
	mustPanic(t, "GemmTNRows bad range", func() { GemmTNRows(c, a, b, -1, 2) })
	bBad := NewMatrix(5, 2)
	mustPanic(t, "GemmRows mismatch", func() { GemmRows(c, a, bBad, 0, 4) })
	mustPanic(t, "GemmTNRows mismatch", func() { GemmTNRows(c, bBad, a, 0, 4) })
	mustPanic(t, "ParallelGemm mismatch", func() { ParallelGemm(nil, c, a, bBad) })
	mustPanic(t, "ParallelGemmNT mismatch", func() { ParallelGemmNT(nil, c, a, bBad) })
	mustPanic(t, "ParallelGemmTN mismatch", func() { ParallelGemmTN(nil, c, bBad, a) })
}
