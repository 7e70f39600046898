package noise

import (
	"fmt"

	"enld/internal/dataset"
)

// Classifier is the slice of model behaviour probability estimation needs:
// the predicted label argmax M(x, θ). internal/nn.Network satisfies it.
type Classifier interface {
	Predict(x []float64) int
}

// BatchClassifier is the batched fast path: models that can predict a whole
// input slice in one call (internal/nn.Network's blocked-GEMM batch kernels).
// EstimateJoint prefers it when available; predictions must equal per-sample
// Predict calls. The int argument is nn.Network.PredictBatch's worker count,
// which has no effect.
type BatchClassifier interface {
	PredictBatch(xs [][]float64, workers int) []int
}

// Joint is the estimated joint count matrix J of Eq. 3–4:
// J[i][j] = |{x : ỹ(x) = i, argmax M(x, θ) = j}|.
type Joint [][]int

// EstimateJoint counts the joint distribution of observed labels and model
// predictions over s (Eq. 3–4), following the assumption of [INCV] that the
// predicted label and the true label share a distribution. Samples with
// missing labels are skipped.
func EstimateJoint(s dataset.Set, model Classifier, classes int) (Joint, error) {
	if classes < 2 {
		return nil, fmt.Errorf("noise: estimate with %d classes", classes)
	}
	j := make(Joint, classes)
	for i := range j {
		j[i] = make([]int, classes)
	}
	labelled := make([]int, 0, len(s))
	xs := make([][]float64, 0, len(s))
	for i, smp := range s {
		if smp.Observed == dataset.Missing {
			continue
		}
		if smp.Observed < 0 || smp.Observed >= classes {
			return nil, fmt.Errorf("noise: observed label %d outside [0, %d)", smp.Observed, classes)
		}
		labelled = append(labelled, i)
		xs = append(xs, smp.X)
	}
	var preds []int
	if bc, ok := model.(BatchClassifier); ok {
		preds = bc.PredictBatch(xs, 1)
	} else {
		preds = make([]int, len(xs))
		for i, x := range xs {
			preds[i] = model.Predict(x)
		}
	}
	for n, i := range labelled {
		pred := preds[n]
		if pred < 0 || pred >= classes {
			return nil, fmt.Errorf("noise: model predicted %d outside [0, %d)", pred, classes)
		}
		j[s[i].Observed][pred]++
	}
	return j, nil
}

// Conditional is the estimated conditional probability matrix
// P̃[i][j] = P̃(y* = j | ỹ = i) of Eq. 5.
type Conditional [][]float64

// Conditional normalizes the joint counts row-wise (Eq. 5). Rows with no
// observations fall back to a point mass on the observed label itself, the
// only unbiased choice absent evidence.
func (j Joint) Conditional() Conditional {
	p := make(Conditional, len(j))
	for i, row := range j {
		p[i] = make([]float64, len(row))
		total := 0
		for _, c := range row {
			total += c
		}
		if total == 0 {
			p[i][i] = 1
			continue
		}
		for k, c := range row {
			p[i][k] = float64(c) / float64(total)
		}
	}
	return p
}

// Sample draws a candidate true label for observed label i from P̃(·|ỹ=i),
// restricted to the allowed label set. This is random_label(i, P̃, ·) in
// Algorithm 2: contrastive sampling estimates the ambiguous sample's true
// label before querying neighbours of that label. If the restricted
// distribution has no mass, it falls back to i itself when allowed, else to
// the first allowed label.
func (p Conditional) Sample(i int, allowed map[int]bool, rnd interface{ Float64() float64 }) int {
	if i < 0 || i >= len(p) {
		return fallbackLabel(i, allowed)
	}
	var total float64
	for j, prob := range p[i] {
		if allowed == nil || allowed[j] {
			total += prob
		}
	}
	if total <= 0 {
		return fallbackLabel(i, allowed)
	}
	u := rnd.Float64() * total
	var acc float64
	for j, prob := range p[i] {
		if allowed != nil && !allowed[j] {
			continue
		}
		acc += prob
		if u < acc {
			return j
		}
	}
	return fallbackLabel(i, allowed)
}

func fallbackLabel(i int, allowed map[int]bool) int {
	if allowed == nil || allowed[i] {
		return i
	}
	best := -1
	for j := range allowed {
		if best == -1 || j < best {
			best = j
		}
	}
	if best == -1 {
		return i
	}
	return best
}
