// Package noise implements label-noise generation and the probability
// estimation machinery of ENLD's initialization stage.
//
// Noise is modelled, exactly as in the paper (§III-A), by a label transition
// matrix T with T[i][j] = P(ỹ = j | y* = i). The evaluation uses pair
// asymmetric noise — T[i][i] = 1−η and T[i][(i+1) mod l] = η — and this
// package additionally provides symmetric noise and missing-label masking
// for the §V-H experiments.
package noise

import (
	"fmt"

	"enld/internal/dataset"
	"enld/internal/mat"
)

// TransitionMatrix is a row-stochastic matrix over labels:
// T[i][j] = P(ỹ = j | y* = i).
type TransitionMatrix [][]float64

// Pair returns the pair asymmetric noise matrix of the paper:
// T[i][i] = 1−eta, T[i][(i+1) mod l] = eta. It returns an error if eta is
// outside [0, 1) or l < 2.
func Pair(l int, eta float64) (TransitionMatrix, error) {
	if l < 2 {
		return nil, fmt.Errorf("noise: pair matrix needs >= 2 classes, got %d", l)
	}
	if eta < 0 || eta >= 1 {
		return nil, fmt.Errorf("noise: pair rate %v out of [0, 1)", eta)
	}
	t := zeros(l)
	for i := range t {
		t[i][i] = 1 - eta
		t[i][(i+1)%l] = eta
	}
	return t, nil
}

// Symmetric returns the uniform (symmetric) noise matrix: with probability
// eta the label flips to one of the other l−1 classes uniformly.
func Symmetric(l int, eta float64) (TransitionMatrix, error) {
	if l < 2 {
		return nil, fmt.Errorf("noise: symmetric matrix needs >= 2 classes, got %d", l)
	}
	if eta < 0 || eta >= 1 {
		return nil, fmt.Errorf("noise: symmetric rate %v out of [0, 1)", eta)
	}
	t := zeros(l)
	off := eta / float64(l-1)
	for i := range t {
		for j := range t[i] {
			if i == j {
				t[i][j] = 1 - eta
			} else {
				t[i][j] = off
			}
		}
	}
	return t, nil
}

func zeros(l int) TransitionMatrix {
	t := make(TransitionMatrix, l)
	for i := range t {
		t[i] = make([]float64, l)
	}
	return t
}

// Validate reports whether t is square and row-stochastic within tolerance.
func (t TransitionMatrix) Validate() error {
	l := len(t)
	for i, row := range t {
		if len(row) != l {
			return fmt.Errorf("noise: row %d has length %d, want %d", i, len(row), l)
		}
		var sum float64
		for _, v := range row {
			if v < 0 {
				return fmt.Errorf("noise: negative probability in row %d", i)
			}
			sum += v
		}
		if d := sum - 1; d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("noise: row %d sums to %v", i, sum)
		}
	}
	return nil
}

// sampleRow draws a label from the categorical distribution in row.
func sampleRow(row []float64, rng *mat.RNG) int {
	u := rng.Float64()
	var acc float64
	for j, p := range row {
		acc += p
		if u < acc {
			return j
		}
	}
	return len(row) - 1
}

// Apply corrupts the observed labels of s in place according to t: each
// sample's Observed label is redrawn from T[y*]. True labels are untouched.
// It returns the number of samples whose observed label now differs from the
// true label.
func Apply(s dataset.Set, t TransitionMatrix, rng *mat.RNG) (noisy int, err error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	l := len(t)
	for i := range s {
		if s[i].True < 0 || s[i].True >= l {
			return noisy, fmt.Errorf("noise: sample %d has true label %d outside [0, %d)", s[i].ID, s[i].True, l)
		}
		s[i].Observed = sampleRow(t[s[i].True], rng)
		if s[i].Observed != s[i].True {
			noisy++
		}
	}
	return noisy, nil
}

// ApplyInstanceDependent corrupts labels with probability proportional to
// each sample's ambiguity: samples whose feature vector lies nearly as close
// to another class's mean as to their own flip most often, and they flip to
// that nearest competitor. This is the instance-dependent noise model of the
// broader label-noise literature (e.g. Chen et al., AAAI 2021, cited by the
// paper as [10]) — boundary samples are the ones human annotators actually
// mislabel. rate scales the overall corruption level; the expected fraction
// of flipped labels is roughly rate/2 (ambiguity averages ~0.5 on
// overlapping classes). Class means are estimated from the true labels of s
// itself. It returns the number of corrupted labels.
func ApplyInstanceDependent(s dataset.Set, classes int, rate float64, rng *mat.RNG) (int, error) {
	if rate < 0 || rate > 1 {
		return 0, fmt.Errorf("noise: instance-dependent rate %v out of [0, 1]", rate)
	}
	if len(s) == 0 {
		return 0, nil
	}
	dim := len(s[0].X)
	means := make([][]float64, classes)
	counts := make([]int, classes)
	for i := range means {
		means[i] = make([]float64, dim)
	}
	for _, smp := range s {
		if smp.True < 0 || smp.True >= classes {
			return 0, fmt.Errorf("noise: sample %d true label %d outside [0, %d)", smp.ID, smp.True, classes)
		}
		if len(smp.X) != dim {
			return 0, fmt.Errorf("noise: sample %d has dim %d, want %d", smp.ID, len(smp.X), dim)
		}
		mat.Axpy(1, smp.X, means[smp.True])
		counts[smp.True]++
	}
	for c := range means {
		if counts[c] > 0 {
			mat.Scale(1/float64(counts[c]), means[c])
		}
	}
	noisy := 0
	for i := range s {
		own := mat.Dist(s[i].X, means[s[i].True])
		// Nearest competitor class by mean distance.
		best, bestD := -1, 0.0
		for c := 0; c < classes; c++ {
			if c == s[i].True || counts[c] == 0 {
				continue
			}
			if d := mat.Dist(s[i].X, means[c]); best == -1 || d < bestD {
				best, bestD = c, d
			}
		}
		if best == -1 {
			continue
		}
		// Ambiguity in (0, 1]: 1 when equidistant, → 0 when own class is
		// much closer.
		ambiguity := own / (own + bestD) * 2
		if ambiguity > 1 {
			ambiguity = 1
		}
		if rng.Float64() < rate*ambiguity {
			s[i].Observed = best
			noisy++
		} else {
			s[i].Observed = s[i].True
		}
	}
	return noisy, nil
}

// MaskMissing removes the observed label of a uniform fraction rate of the
// samples in s (setting Observed = dataset.Missing), returning how many were
// masked. This is the missing-label scenario of §V-H, where missing labels
// are treated as a special case of noisy labels.
func MaskMissing(s dataset.Set, rate float64, rng *mat.RNG) (int, error) {
	if rate < 0 || rate > 1 {
		return 0, fmt.Errorf("noise: missing rate %v out of [0, 1]", rate)
	}
	masked := 0
	for i := range s {
		if rng.Float64() < rate {
			s[i].Observed = dataset.Missing
			masked++
		}
	}
	return masked, nil
}
