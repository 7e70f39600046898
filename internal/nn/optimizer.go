package nn

import (
	"math"

	"enld/internal/mat"
)

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

// Step applies the gradients in g, averaged over batchSize samples, to n.
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
