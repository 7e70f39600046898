package nn

import (
	"fmt"

	"enld/internal/mat"
)

// Arch names a network family used in the paper's evaluation. The original
// work trains convolutional networks on images; this reproduction substitutes
// multi-layer perceptrons over feature vectors (see DESIGN.md §1). The three
// named configurations differ in depth and width the same way the paper's
// families do, which is what Fig. 6's architecture-generalization experiment
// exercises.
type Arch string

const (
	// SimResNet110 is the default architecture, standing in for ResNet-110.
	SimResNet110 Arch = "sim-resnet110"
	// SimDenseNet121 stands in for DenseNet-121: wider, shallower.
	SimDenseNet121 Arch = "sim-densenet121"
	// SimResNet164 stands in for ResNet-164: deeper, narrower.
	SimResNet164 Arch = "sim-resnet164"
)

// archHidden maps each architecture to its hidden-layer widths.
var archHidden = map[Arch][]int{
	SimResNet110:   {128, 96, 64},
	SimDenseNet121: {192, 128},
	SimResNet164:   {128, 96, 96, 64},
}

// Build constructs a network of architecture a for the given input dimension
// and class count. It returns an error for unknown architectures.
func Build(a Arch, inputDim, classes int, rng *mat.RNG) (*Network, error) {
	hidden, ok := archHidden[a]
	if !ok {
		return nil, fmt.Errorf("nn: unknown architecture %q", a)
	}
	if inputDim <= 0 || classes <= 0 {
		return nil, fmt.Errorf("nn: invalid dimensions input=%d classes=%d", inputDim, classes)
	}
	sizes := make([]int, 0, len(hidden)+2)
	sizes = append(sizes, inputDim)
	sizes = append(sizes, hidden...)
	sizes = append(sizes, classes)
	return NewNetwork(sizes, rng), nil
}
