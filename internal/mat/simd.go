package mat

// SIMD dispatch state for the GEMM kernels.
//
// The AVX2 micro-kernels (gemm_amd64.s) vectorize across output columns j
// with a broadcast A-scalar, and use separate multiply and add instructions —
// never FMA. Each output element therefore sees exactly the two-rounding
// sequence of the scalar `c += a*b` for every p, in the same strictly
// increasing p order, so the SIMD paths are bit-identical to the pure-Go
// kernels (pinned by TestGemmSIMDMatchesGeneric) and the determinism contract
// of DESIGN.md §4 is preserved, not versioned.

// simdMinCols is the narrowest output the vector kernels accept: one
// register-width of columns.
const simdMinCols = 8

// simdGemm gates the assembly kernels at run time. It is written only at
// package initialization and by SetSIMD in tests; all other access is
// read-only, so concurrent GEMM calls race-detector-cleanly share it.
var simdGemm = simdAvailable

// SIMDAvailable reports whether this binary has vector GEMM kernels for the
// current CPU (amd64 with AVX2 and OS-saved YMM state).
func SIMDAvailable() bool { return simdAvailable }

// SetSIMD enables or disables the vector kernels and returns the previous
// setting. Enabling is a no-op when the CPU lacks support. It is intended
// for tests and benchmarks that pin the generic path; it must not be called
// concurrently with matrix operations.
func SetSIMD(on bool) (prev bool) {
	prev = simdGemm
	simdGemm = on && simdAvailable
	return prev
}
