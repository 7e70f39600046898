package nn

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnhealthy is the sentinel a non-finite model state wraps. Callers
// branch on errors.Is(err, ErrUnhealthy) to tell "the weights went bad"
// from ordinary configuration or I/O errors.
var ErrUnhealthy = errors.New("nn: unhealthy model state")

// NonFiniteError locates the first NaN/±Inf parameter of a network. It wraps
// ErrUnhealthy.
type NonFiniteError struct {
	// Layer and Index locate the parameter within the layer's weights, or
	// within its biases when every weight of the layer is finite.
	Layer, Index int
	Value        float64
}

// Error implements error.
func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("nn: unhealthy: non-finite parameter at layer %d index %d (value %v)",
		e.Layer, e.Index, e.Value)
}

// Unwrap makes every NonFiniteError match ErrUnhealthy.
func (e *NonFiniteError) Unwrap() error { return ErrUnhealthy }

// CheckFinite returns nil when every parameter of n is finite, and a
// NonFiniteError locating the first NaN/±Inf otherwise. Platform setup runs
// it after training and the snapshot loader before serving from a restored
// model.
func (n *Network) CheckFinite() error {
	for l := range n.Weights {
		for _, vs := range [][]float64{n.Weights[l].Data, n.Biases[l]} {
			for i, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return &NonFiniteError{Layer: l, Index: i, Value: v}
				}
			}
		}
	}
	return nil
}
