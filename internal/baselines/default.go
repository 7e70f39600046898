// Package baselines implements the comparison methods of §V-A4: Default
// (disagreement with the general model), Confident Learning (two pruning
// variants, CL-1 and CL-2) and TopoFilter (feature-space k-NN components).
//
// All baselines share the general model θ trained during platform setup, so
// their per-request "process time" reflects only the work the method itself
// performs on the incremental dataset — the same accounting the paper uses.
package baselines

import (
	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/mat"
	"enld/internal/nn"
)

// Default flags a sample as noisy when the general model's predicted label
// disagrees with the observed label: argmax M(x, θ) ≠ ỹ. Missing labels are
// flagged as noisy. This is the cheapest possible method and the paper's
// floor baseline.
type Default struct {
	Model *nn.Network
}

// Name implements detect.Detector.
func (Default) Name() string { return "default" }

// Detect implements detect.Detector.
func (d Default) Detect(set dataset.Set) (*detect.Result, error) {
	sw := cost.StartStopwatch()
	res := detect.NewResult()
	xs := make([][]float64, len(set))
	for i, smp := range set {
		xs[i] = smp.X
	}
	// The lake service runs detectors from a worker pool against one shared
	// general model; batched inference only reads its parameters, so no
	// clone is needed. The prediction is the argmax of the softmax row, as
	// detect.Scores takes it.
	conf := d.Model.ConfidencesBatch(xs)
	res.Meter.ForwardPasses += int64(len(set))
	for i, smp := range set {
		if smp.Observed == dataset.Missing || mat.ArgMax(conf[i]) != smp.Observed {
			res.MarkNoisy(smp.ID)
		} else {
			res.MarkClean(smp.ID)
		}
	}
	res.Process = sw.Elapsed()
	return res, nil
}
