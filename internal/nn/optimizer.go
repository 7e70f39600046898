package nn

import (
	"math"

	"enld/internal/mat"
)

// Optimizer applies accumulated gradients to a network's parameters.
// Implementations own any per-parameter state (momentum buffers, Adam
// moments) and must be used with a single network for their lifetime.
type Optimizer interface {
	// Step applies the gradients in g, averaged over batchSize samples, to n.
	Step(n *Network, g *Grads, batchSize int)
}

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay. It is the paper's optimizer (universal cross-entropy
// training of ResNet variants).
type SGD struct {
	LR          float64 // learning rate
	Momentum    float64 // momentum coefficient, 0 disables
	WeightDecay float64 // L2 penalty coefficient, 0 disables
	// ClipNorm caps the global L2 norm of each batch's (averaged) gradient;
	// 0 disables clipping. Deep ReLU stacks on unnormalized feature inputs
	// can emit exploding gradients early in training, and clipping keeps a
	// single bad batch from destroying the parameters.
	ClipNorm float64

	velW []*mat.Matrix
	velB [][]float64
}

// NewSGD returns an SGD optimizer with the given hyperparameters and
// gradient clipping at global norm 5.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, ClipNorm: 5}
}

func (s *SGD) ensureState(n *Network) {
	if s.velW != nil {
		return
	}
	for l, w := range n.Weights {
		s.velW = append(s.velW, mat.NewMatrix(w.Rows, w.Cols))
		s.velB = append(s.velB, make([]float64, len(n.Biases[l])))
	}
}

// Step implements Optimizer.
func (s *SGD) Step(n *Network, g *Grads, batchSize int) {
	if batchSize <= 0 {
		return
	}
	s.ensureState(n)
	inv := 1 / float64(batchSize)
	if s.ClipNorm > 0 {
		var sq float64
		for l := range g.Weights {
			sq += mat.Dot(g.Weights[l].Data, g.Weights[l].Data)
			sq += mat.Dot(g.Biases[l], g.Biases[l])
		}
		if norm := math.Sqrt(sq) * inv; norm > s.ClipNorm {
			inv *= s.ClipNorm / norm
		}
	}
	for l := range n.Weights {
		stepSlice(n.Weights[l].Data, g.Weights[l].Data, s.velW[l].Data, s.LR, s.Momentum, s.WeightDecay, inv)
		stepSlice(n.Biases[l], g.Biases[l], s.velB[l], s.LR, s.Momentum, 0, inv)
	}
}

func stepSlice(param, grad, vel []float64, lr, momentum, decay, inv float64) {
	mat.SGDStep(param, grad, vel, lr, momentum, decay, inv)
}

// Adam implements the Adam optimizer. The fine-tuning loops of fine-grained
// noisy label detection converge in very few epochs with Adam, which is how
// the reproduction keeps per-task process time low while matching the
// paper's "small amount of fine-tuning" claim.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mW []*mat.Matrix
	vW []*mat.Matrix
	mB [][]float64
	vB [][]float64
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

func (a *Adam) ensureState(n *Network) {
	if a.mW != nil {
		return
	}
	for l, w := range n.Weights {
		a.mW = append(a.mW, mat.NewMatrix(w.Rows, w.Cols))
		a.vW = append(a.vW, mat.NewMatrix(w.Rows, w.Cols))
		a.mB = append(a.mB, make([]float64, len(n.Biases[l])))
		a.vB = append(a.vB, make([]float64, len(n.Biases[l])))
	}
}

// Step implements Optimizer.
func (a *Adam) Step(n *Network, g *Grads, batchSize int) {
	if batchSize <= 0 {
		return
	}
	a.ensureState(n)
	a.t++
	inv := 1 / float64(batchSize)
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for l := range n.Weights {
		a.stepSlice(n.Weights[l].Data, g.Weights[l].Data, a.mW[l].Data, a.vW[l].Data, inv, c1, c2)
		a.stepSlice(n.Biases[l], g.Biases[l], a.mB[l], a.vB[l], inv, c1, c2)
	}
}

func (a *Adam) stepSlice(param, grad, m, v []float64, inv, c1, c2 float64) {
	for i := range param {
		d := grad[i] * inv
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*d
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*d*d
		mHat := m[i] / c1
		vHat := v[i] / c2
		param[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
}
