package dataset

import (
	"errors"
	"fmt"

	"enld/internal/mat"
)

// PCA is a fitted principal-component projection. Raw pixel inputs from
// LoadIDX are hundreds of dimensions; the detection pipeline's k-NN queries
// and MLP models work best on compact feature vectors, so PCA bridges the
// two: fit on the inventory, project everything.
type PCA struct {
	Mean       []float64
	Components [][]float64 // row per component, unit length
}

// FitPCA computes the top-k principal components of the samples' feature
// vectors using orthogonal (power) iteration on the covariance operator.
// It never materializes the covariance matrix, so high input dimensions are
// fine. Deterministic given the rng seed.
func FitPCA(s Set, k int, rng *mat.RNG) (*PCA, error) {
	if len(s) < 2 {
		return nil, errors.New("dataset: pca needs at least 2 samples")
	}
	dim := len(s[0].X)
	if k < 1 || k > dim {
		return nil, fmt.Errorf("dataset: pca components %d out of [1, %d]", k, dim)
	}
	mean := make([]float64, dim)
	for _, smp := range s {
		if len(smp.X) != dim {
			return nil, errors.New("dataset: pca on ragged vectors")
		}
		mat.Axpy(1, smp.X, mean)
	}
	mat.Scale(1/float64(len(s)), mean)

	centered := make([][]float64, len(s))
	for i, smp := range s {
		c := make([]float64, dim)
		mat.Sub(c, smp.X, mean)
		centered[i] = c
	}

	p := &PCA{Mean: mean}
	// Deflation: find each component by power iteration, then remove its
	// variance contribution from the centered data.
	work := make([]float64, dim)
	for comp := 0; comp < k; comp++ {
		v := rng.NormVec(make([]float64, dim), 0, 1)
		normalize(v)
		for iter := 0; iter < 100; iter++ {
			// work = Cov·v = (1/n) Σ x (xᵀ v)
			clear(work)
			for _, x := range centered {
				mat.Axpy(mat.Dot(x, v), x, work)
			}
			mat.Scale(1/float64(len(centered)), work)
			n := mat.Norm2(work)
			if n < 1e-12 {
				// No variance left; pad with an arbitrary unit vector
				// orthogonal to nothing in particular.
				break
			}
			mat.Scale(1/n, work)
			delta := mat.Dist(work, v)
			copy(v, work)
			if delta < 1e-10 {
				break
			}
		}
		p.Components = append(p.Components, append([]float64(nil), v...))
		// Deflate: remove the component from every centered vector.
		for _, x := range centered {
			mat.Axpy(-mat.Dot(x, v), v, x)
		}
	}
	return p, nil
}

// Project returns the k-dimensional projection of x.
func (p *PCA) Project(x []float64) ([]float64, error) {
	if len(x) != len(p.Mean) {
		return nil, fmt.Errorf("dataset: pca project dim %d, want %d", len(x), len(p.Mean))
	}
	centered := make([]float64, len(x))
	mat.Sub(centered, x, p.Mean)
	out := make([]float64, len(p.Components))
	for i, comp := range p.Components {
		out[i] = mat.Dot(centered, comp)
	}
	return out, nil
}

// Apply returns a copy of s with every feature vector projected.
func (p *PCA) Apply(s Set) (Set, error) {
	out := make(Set, len(s))
	for i, smp := range s {
		x, err := p.Project(smp.X)
		if err != nil {
			return nil, err
		}
		smp.X = x
		out[i] = smp
	}
	return out, nil
}

func normalize(v []float64) {
	if n := mat.Norm2(v); n > 0 {
		mat.Scale(1/n, v)
	}
}
