// Package nn implements the small feed-forward neural-network training stack
// that stands in for the paper's convolutional models (ResNet-110,
// DenseNet-121, ResNet-164).
//
// ENLD consumes exactly two model outputs: the softmax confidence vector
// M(x,θ) and the penultimate-layer feature representation M̂(x,θ). Any
// trainable classifier exposing both exercises the same algorithmic surface,
// so this package provides multi-layer perceptrons over feature vectors with
// an SGD+momentum optimizer, mixup augmentation (Eq. 1–2 of the paper)
// and cross-entropy loss, plus named architecture configurations mirroring
// the paper's three network families (see arch.go).
package nn

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"enld/internal/mat"
)

// Network is a fully connected feed-forward classifier.
//
// Layout: input → [Dense → ReLU]* → Dense → softmax. The activation vector
// feeding the final Dense layer is the feature representation M̂(x,θ); the
// softmax output is the confidence vector M(x,θ).
//
// The per-sample methods (Predict, Confidences, Features, Evaluate, Loss,
// Backward) are not safe for concurrent use: they share the scratch buffers
// allocated at construction time. Batched inference through distinct
// Evaluators only reads the parameters, so any number of goroutines may run
// it at once while nothing trains the network. Clone the network to train
// independent copies from several goroutines.
type Network struct {
	// Weights[l] maps activations of layer l (length sizes[l]) to
	// pre-activations of layer l+1 (length sizes[l+1]).
	Weights []*mat.Matrix
	Biases  [][]float64
	sizes   []int

	// Scratch buffers reused across forward/backward calls.
	acts   [][]float64 // post-activation per layer, acts[0] is the input copy
	pre    [][]float64 // pre-activation per non-input layer
	deltas [][]float64 // error terms per non-input layer
	probs  []float64   // softmax output buffer

	// evals holds idle Evaluators bound to this network (see
	// BorrowEvaluator); a Clone or a loaded network starts with none.
	evals sync.Pool
}

// NewNetwork constructs a network with the given layer sizes
// (input, hidden..., classes) and He-style random initialization.
// It panics if fewer than two sizes are given or any size is non-positive.
func NewNetwork(sizes []int, rng *mat.RNG) *Network {
	if len(sizes) < 2 {
		panic("nn: NewNetwork needs at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("nn: NewNetwork with non-positive layer size")
		}
	}
	n := &Network{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		w := mat.NewMatrix(sizes[l+1], sizes[l])
		// He initialization keeps ReLU activations well-scaled in deep stacks.
		std := math.Sqrt(2.0 / float64(sizes[l]))
		rng.NormVec(w.Data, 0, std)
		n.Weights = append(n.Weights, w)
		n.Biases = append(n.Biases, make([]float64, sizes[l+1]))
	}
	n.allocScratch()
	return n
}

func (n *Network) allocScratch() {
	L := len(n.sizes)
	n.acts = make([][]float64, L)
	n.pre = make([][]float64, L-1)
	n.deltas = make([][]float64, L-1)
	for i, s := range n.sizes {
		n.acts[i] = make([]float64, s)
		if i > 0 {
			n.pre[i-1] = make([]float64, s)
			n.deltas[i-1] = make([]float64, s)
		}
	}
	n.probs = make([]float64, n.sizes[L-1])
}

// InputDim returns the expected input vector length.
func (n *Network) InputDim() int { return n.sizes[0] }

// Classes returns the number of output classes.
func (n *Network) Classes() int { return n.sizes[len(n.sizes)-1] }

// FeatureDim returns the length of the feature representation M̂(x,θ) —
// the activation vector entering the final classifier layer.
func (n *Network) FeatureDim() int { return n.sizes[len(n.sizes)-2] }

// Sizes returns a copy of the layer size vector.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }

// forward runs the network on x, filling the scratch activations.
// The returned slice is the output-layer pre-activation (logits).
func (n *Network) forward(x []float64) []float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("nn: input length %d, want %d", len(x), n.sizes[0]))
	}
	copy(n.acts[0], x)
	last := len(n.Weights) - 1
	for l, w := range n.Weights {
		out := n.pre[l]
		w.MulVec(out, n.acts[l])
		mat.Axpy(1, n.Biases[l], out)
		if l < last {
			// ReLU into the next activation buffer.
			a := n.acts[l+1]
			for i, v := range out {
				if v > 0 {
					a[i] = v
				} else {
					a[i] = 0
				}
			}
		} else {
			copy(n.acts[l+1], out)
		}
	}
	return n.pre[last]
}

// Confidences returns the softmax output M(x,θ). The returned slice is a
// fresh allocation owned by the caller.
func (n *Network) Confidences(x []float64) []float64 {
	logits := n.forward(x)
	out := make([]float64, len(logits))
	mat.Softmax(out, logits)
	return out
}

// Predict returns argmax M(x,θ), the predicted class label.
func (n *Network) Predict(x []float64) int {
	return mat.ArgMax(n.forward(x))
}

// Features returns the feature representation M̂(x,θ): the post-ReLU
// activations of the last hidden layer. The returned slice is a fresh
// allocation owned by the caller.
func (n *Network) Features(x []float64) []float64 {
	n.forward(x)
	feat := n.acts[len(n.acts)-2]
	return append([]float64(nil), feat...)
}

// Evaluate runs one forward pass and returns both the confidence vector
// M(x,θ) and the feature representation M̂(x,θ) as fresh allocations.
// Detectors that need both should prefer this over separate Confidences and
// Features calls, which would each run their own forward pass.
func (n *Network) Evaluate(x []float64) (conf, feat []float64) {
	logits := n.forward(x)
	conf = make([]float64, len(logits))
	mat.Softmax(conf, logits)
	feat = append([]float64(nil), n.acts[len(n.acts)-2]...)
	return conf, feat
}

// Loss returns the cross-entropy loss of the network on (x, target) where
// target is a distribution over classes (one-hot for hard labels).
func (n *Network) Loss(x, target []float64) float64 {
	logits := n.forward(x)
	lse := mat.LogSumExp(logits)
	var loss float64
	for c, t := range target {
		if t > 0 {
			loss += t * (lse - logits[c])
		}
	}
	return loss
}

// Grads holds per-layer gradients matching a Network's parameter shapes.
type Grads struct {
	Weights []*mat.Matrix
	Biases  [][]float64
}

// NewGrads returns a zeroed gradient accumulator shaped like n.
func (n *Network) NewGrads() *Grads {
	g := &Grads{}
	for l, w := range n.Weights {
		g.Weights = append(g.Weights, mat.NewMatrix(w.Rows, w.Cols))
		g.Biases = append(g.Biases, make([]float64, len(n.Biases[l])))
	}
	return g
}

// Zero clears all accumulated gradients.
func (g *Grads) Zero() {
	for l := range g.Weights {
		g.Weights[l].Zero()
		clear(g.Biases[l])
	}
}

// Add accumulates other into g element-wise. The trainer reduces each
// batch's chunk gradients with Add in fixed chunk order.
func (g *Grads) Add(other *Grads) {
	for l := range g.Weights {
		mat.Axpy(1, other.Weights[l].Data, g.Weights[l].Data)
		mat.Axpy(1, other.Biases[l], g.Biases[l])
	}
}

// Backward accumulates into g the gradient of the cross-entropy loss of
// (x, target) and returns the loss value. target is a distribution over
// classes; mixup produces two-hot soft targets, plain training one-hot ones.
func (n *Network) Backward(g *Grads, x, target []float64) float64 {
	if len(target) != n.Classes() {
		panic("nn: Backward target length mismatch")
	}
	logits := n.forward(x)
	mat.Softmax(n.probs, logits)
	lse := mat.LogSumExp(logits)
	var loss float64
	last := len(n.Weights) - 1
	// dL/dlogits = softmax - target.
	dOut := n.deltas[last]
	for c := range dOut {
		dOut[c] = n.probs[c] - target[c]
		if target[c] > 0 {
			loss += target[c] * (lse - logits[c])
		}
	}
	for l := last; l >= 0; l-- {
		delta := n.deltas[l]
		g.Weights[l].AddOuter(1, delta, n.acts[l])
		mat.Axpy(1, delta, g.Biases[l])
		if l > 0 {
			prev := n.deltas[l-1]
			n.Weights[l].MulVecT(prev, delta)
			// ReLU derivative gates on the pre-activation of layer l.
			for i, p := range n.pre[l-1] {
				if p <= 0 {
					prev[i] = 0
				}
			}
		}
	}
	return loss
}

// Clone returns a deep copy of the network with its own scratch buffers, so
// the copy can be trained or queried concurrently with the original.
func (n *Network) Clone() *Network {
	c := &Network{sizes: append([]int(nil), n.sizes...)}
	for l, w := range n.Weights {
		c.Weights = append(c.Weights, w.Clone())
		c.Biases = append(c.Biases, append([]float64(nil), n.Biases[l]...))
	}
	c.allocScratch()
	return c
}

// CopyFrom overwrites n's parameters with src's. The two networks must have
// identical architectures.
func (n *Network) CopyFrom(src *Network) error {
	if len(n.sizes) != len(src.sizes) {
		return errors.New("nn: CopyFrom architecture mismatch")
	}
	for i, s := range n.sizes {
		if src.sizes[i] != s {
			return errors.New("nn: CopyFrom architecture mismatch")
		}
	}
	for l := range n.Weights {
		copy(n.Weights[l].Data, src.Weights[l].Data)
		copy(n.Biases[l], src.Biases[l])
	}
	return nil
}
