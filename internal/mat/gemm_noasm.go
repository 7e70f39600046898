//go:build !amd64

package mat

// Stubs for platforms without vector kernels: simdAvailable stays false, so
// the SIMD functions below are unreachable (the dispatchers in gemm.go check
// simdGemm first).

var simdAvailable = false

func gemmRowsNNSIMD(C, A, B *Matrix, i0, i1 int) {
	panic("mat: SIMD kernel called without CPU support")
}

func gemmRowsTNSIMD(C, A, B *Matrix, i0, i1 int) {
	panic("mat: SIMD kernel called without CPU support")
}
