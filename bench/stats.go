package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified. An empty
// sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailSamples is how many samples must lie beyond a percentile before the
// harness reports it.
const tailSamples = 10

// tailPercentiles are the candidates of the percentile rule, highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.90, 0.75}

// highestPercentile returns the highest candidate percentile that n samples
// support: at least tailSamples of them lie beyond it. So p95 needs 200
// samples and p90 needs 100; below 40 samples only the median is reported
// and ok is false.
func highestPercentile(n int) (q float64, ok bool) {
	for _, p := range tailPercentiles {
		if supported(n, p) {
			return p, true
		}
	}
	return 0.5, false
}

// supported reports whether n samples support percentile q under the rule.
// Integer arithmetic — n·(1−q) in hundredths — so that 200·0.05 is exactly
// 10 and not 9.999….
func supported(n int, q float64) bool {
	return n*(100-int(math.Round(q*100))) >= tailSamples*100
}

// pooledF1 is the F1 of detection counts summed over several datasets.
func pooledF1(truePositives, detected, actual int) float64 {
	return ratio(2*float64(truePositives), float64(detected+actual))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work on this
// workload reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
