package mat

import "math"

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// simdMinVec is the shortest slice the element-wise vector kernels accept;
// below it the scalar loop wins on dispatch cost alone.
const simdMinVec = 8

// Axpy computes dst[i] += alpha*x[i] for all i. The AVX2 path performs the
// same one-multiply-one-add rounding per element as the scalar loop, so
// results are bit-identical with SIMD on or off.
func Axpy(alpha float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic("mat: Axpy length mismatch")
	}
	i := 0
	if simdGemm && len(x) >= simdMinVec {
		nv := len(x) &^ 3
		axpyKern(alpha, &x[0], &dst[0], uintptr(nv))
		i = nv
	}
	for ; i < len(x); i++ {
		dst[i] += alpha * x[i]
	}
}

// Relu writes dst[i] = max(src[i], 0): positive values pass through
// unchanged, everything else — negatives, both zeros and NaN — maps to +0,
// exactly like the scalar branch `if v > 0 { v } else { 0 }` on every path.
func Relu(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mat: Relu length mismatch")
	}
	i := 0
	if simdGemm && len(src) >= simdMinVec {
		nv := len(src) &^ 3
		reluKern(&dst[0], &src[0], uintptr(nv))
		i = nv
	}
	for ; i < len(src); i++ {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReluGate zeroes dst[i] wherever pre[i] <= 0, the backward counterpart of
// Relu. A NaN pre-activation keeps its delta on both the scalar and the
// SIMD path (the ordered compare is false for NaN, like the scalar `<=`).
func ReluGate(dst, pre []float64) {
	if len(dst) != len(pre) {
		panic("mat: ReluGate length mismatch")
	}
	i := 0
	if simdGemm && len(pre) >= simdMinVec {
		nv := len(pre) &^ 3
		gateKern(&dst[0], &pre[0], uintptr(nv))
		i = nv
	}
	for ; i < len(pre); i++ {
		if pre[i] <= 0 {
			dst[i] = 0
		}
	}
}

// SGDStep applies one momentum-SGD update step element-wise:
//
//	d      := grad[i]*inv + decay*param[i]
//	vel[i]  = momentum*vel[i] - lr*d
//	param[i] += vel[i]
//
// The AVX2 path performs the same five roundings per element in the same
// order as the scalar loop, so updated parameters and velocities are
// bit-identical with SIMD on or off.
func SGDStep(param, grad, vel []float64, lr, momentum, decay, inv float64) {
	if len(grad) != len(param) || len(vel) != len(param) {
		panic("mat: SGDStep length mismatch")
	}
	i := 0
	if simdGemm && len(param) >= simdMinVec {
		nv := len(param) &^ 3
		sgdKern(&param[0], &grad[0], &vel[0], uintptr(nv), lr, momentum, decay, inv)
		i = nv
	}
	for ; i < len(param); i++ {
		d := grad[i]*inv + decay*param[i]
		v := momentum*vel[i] - lr*d
		vel[i] = v
		param[i] += v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes dst[i] = a[i] + b[i].
func Add(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst[i] = a[i] - b[i].
func Sub(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Copy copies src into dst and returns dst. It panics if lengths differ.
func Copy(dst, src []float64) []float64 {
	if len(dst) != len(src) {
		panic("mat: Copy length mismatch")
	}
	copy(dst, src)
	return dst
}

// Lerp computes dst[i] = t*a[i] + (1-t)*b[i], the convex combination used by
// mixup augmentation (Eq. 1 and Eq. 2 of the paper).
func Lerp(dst, a, b []float64, t float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: Lerp length mismatch")
	}
	u := 1 - t
	for i := range dst {
		dst[i] = t*a[i] + u*b[i]
	}
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: SqDist length mismatch")
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance ||a-b|| (Eq. 7 of the paper).
func Dist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest element of x, or -1 for empty x.
// Ties resolve to the lowest index, matching the deterministic behaviour the
// detection pipeline needs when comparing predicted and observed labels.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// Max returns the largest element of x. It panics on empty input.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("mat: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for empty x.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Softmax writes the softmax of logits into dst and returns dst. The
// computation subtracts the maximum logit first for numerical stability, so
// it is safe on arbitrarily large logits.
func Softmax(dst, logits []float64) []float64 {
	softmaxSum(dst, logits)
	return dst
}

// SoftmaxLSE writes the softmax of logits into dst and returns
// log(sum(exp(logits))): Softmax and LogSumExp in one sweep, for losses that
// need both. The two share their maximum, their exponentials and the
// left-to-right sum of those exponentials, so both results are bit-identical
// to the separate calls (pinned by TestSoftmaxLSEMatchesSeparateCalls) at
// half the exp evaluations.
func SoftmaxLSE(dst, logits []float64) float64 {
	m, sum := softmaxSum(dst, logits)
	return m + math.Log(sum)
}

// softmaxSum writes the softmax of logits into dst and returns the maximum
// logit and the sum of the shifted exponentials it normalized by.
func softmaxSum(dst, logits []float64) (m, sum float64) {
	if len(dst) != len(logits) {
		panic("mat: Softmax length mismatch")
	}
	m = Max(logits)
	for i, v := range logits {
		e := math.Exp(v - m)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return m, sum
}

// LogSumExp returns log(sum(exp(x))) computed stably.
func LogSumExp(x []float64) float64 {
	m := Max(x)
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// Entropy returns the Shannon entropy (nats) of the probability vector p.
// Zero probabilities contribute zero, following the usual 0·log 0 = 0
// convention. The Entropy sampling policy of §V-A5 ranks samples by this
// value.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}
