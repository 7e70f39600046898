package baselines

import (
	"fmt"
	"sort"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/nn"
)

// CLVariant selects the pruning rule of Confident Learning
// [Northcutt et al., JAIR 2021]. The paper reports the two variants with the
// highest F1 as CL-1 and CL-2.
type CLVariant int

const (
	// PruneByClass (CL-1) estimates, per observed class i, how many of its
	// samples are mislabelled (the off-diagonal mass of row i of the
	// confident joint) and prunes that many samples with the lowest
	// self-confidence p(ỹ = i; x).
	PruneByClass CLVariant = iota
	// PruneByNoiseRate (CL-2) prunes, per off-diagonal cell (i, j) of the
	// confident joint, the C[i][j] samples of observed class i with the
	// largest margin p(j; x) − p(i; x).
	PruneByNoiseRate
)

// ConfidentLearning detects noisy labels from the general model's softmax
// outputs alone, with no additional training. Class thresholds
// t_j = E[p(j; x) | ỹ = j] define the confident joint: sample x with
// observed label i counts toward cell (i, j) when p(j; x) ≥ t_j and j is the
// largest such confident class.
type ConfidentLearning struct {
	Model   *nn.Network
	Variant CLVariant
	// Calibration optionally supplies extra labelled data (the paper uses
	// I_c together with D, §V-A4) for estimating the class thresholds.
	// Confidence thresholds from a small incremental dataset alone are
	// noisy; calibrating on the inventory stabilizes them.
	Calibration dataset.Set
}

// Name implements detect.Detector.
func (c ConfidentLearning) Name() string {
	if c.Variant == PruneByClass {
		return "cl-1"
	}
	return "cl-2"
}

// Detect implements detect.Detector.
func (c ConfidentLearning) Detect(set dataset.Set) (*detect.Result, error) {
	sw := cost.StartStopwatch()
	res := detect.NewResult()
	// Clone before scoring: scratch buffers are not safe for concurrent
	// use across the lake service's worker pool.
	model := c.Model.Clone()
	scores := detect.Score(model, set, &res.Meter)
	classes := model.Classes()

	// Class thresholds: mean confidence of class j over samples observed as
	// j, estimated on the calibration data (I_c) together with D per §V-A4.
	// Classes absent everywhere keep threshold +inf (never confident).
	thresh := make([]float64, classes)
	counts := make([]int, classes)
	accumulate := func(smp dataset.Sample, conf []float64) {
		if smp.Observed == dataset.Missing {
			return
		}
		thresh[smp.Observed] += conf[smp.Observed]
		counts[smp.Observed]++
	}
	for i, smp := range set {
		accumulate(smp, scores.Confidences[i])
	}
	// Calibration confidences in one batched pass (blocked-GEMM kernels);
	// identical to per-sample Confidences calls, accumulated in set order.
	calSamples := make([]dataset.Sample, 0, len(c.Calibration))
	calXs := make([][]float64, 0, len(c.Calibration))
	for _, smp := range c.Calibration {
		if smp.Observed == dataset.Missing {
			continue
		}
		calSamples = append(calSamples, smp)
		calXs = append(calXs, smp.X)
	}
	for i, conf := range model.ConfidencesBatch(calXs) {
		accumulate(calSamples[i], conf)
		res.Meter.ForwardPasses++
	}
	for j := range thresh {
		if counts[j] > 0 {
			thresh[j] /= float64(counts[j])
		} else {
			thresh[j] = 2 // unreachable confidence
		}
	}

	// Confident joint C[i][j] with the sample indices backing each cell.
	cells := make(map[[2]int][]int)
	for i, smp := range set {
		if smp.Observed == dataset.Missing {
			// Missing labels cannot enter the joint; flag directly.
			res.MarkNoisy(smp.ID)
			continue
		}
		best, bestConf := -1, 0.0
		for j := 0; j < classes; j++ {
			if p := scores.Confidences[i][j]; p >= thresh[j] && p > bestConf {
				best, bestConf = j, p
			}
		}
		if best >= 0 && best != smp.Observed {
			cells[[2]int{smp.Observed, best}] = append(cells[[2]int{smp.Observed, best}], i)
		}
		res.MarkClean(smp.ID) // provisional; pruning below overrides
	}

	switch c.Variant {
	case PruneByClass:
		c.pruneByClass(set, scores, cells, res)
	case PruneByNoiseRate:
		c.pruneByNoiseRate(set, scores, cells, res)
	default:
		return nil, fmt.Errorf("baselines: unknown CL variant %d", c.Variant)
	}
	res.Process = sw.Elapsed()
	return res, nil
}

func (c ConfidentLearning) pruneByClass(set dataset.Set, scores *detect.Scores, cells map[[2]int][]int, res *detect.Result) {
	// Per observed class: total off-diagonal count n_i, prune the n_i
	// samples of that class with lowest self-confidence.
	offDiag := make(map[int]int)
	for cell, idxs := range cells {
		offDiag[cell[0]] += len(idxs)
	}
	byClass := set.ByObserved()
	for class, n := range offDiag {
		idxs := append([]int(nil), byClass[class]...)
		sort.Slice(idxs, func(a, b int) bool {
			sa := scores.Confidences[idxs[a]][class]
			sb := scores.Confidences[idxs[b]][class]
			if sa != sb {
				return sa < sb
			}
			return idxs[a] < idxs[b]
		})
		if n > len(idxs) {
			n = len(idxs)
		}
		for _, i := range idxs[:n] {
			res.MarkNoisy(set[i].ID)
		}
	}
}

func (c ConfidentLearning) pruneByNoiseRate(set dataset.Set, scores *detect.Scores, cells map[[2]int][]int, res *detect.Result) {
	// Per off-diagonal cell (i, j): prune |cell| samples of observed class i
	// with the largest margin p_j − p_i. The confident-joint construction
	// already associates indices with cells, so prune exactly those whose
	// margin ranks highest within the class.
	for cell, idxs := range cells {
		i, j := cell[0], cell[1]
		ranked := append([]int(nil), idxs...)
		sort.Slice(ranked, func(a, b int) bool {
			ma := scores.Confidences[ranked[a]][j] - scores.Confidences[ranked[a]][i]
			mb := scores.Confidences[ranked[b]][j] - scores.Confidences[ranked[b]][i]
			if ma != mb {
				return ma > mb
			}
			return ranked[a] < ranked[b]
		})
		for _, idx := range ranked {
			res.MarkNoisy(set[idx].ID)
		}
	}
}
