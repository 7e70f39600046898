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
	classes := c.Model.Classes()

	// Confidences of D, then of the labelled calibration samples, in one
	// batched pass through a borrowed workspace of the shared model: no
	// clone, since batched inference only reads the parameters.
	scored := append(make(dataset.Set, 0, len(set)+len(c.Calibration)), set...)
	for _, smp := range c.Calibration {
		if smp.Observed != dataset.Missing {
			scored = append(scored, smp)
		}
	}
	xs := make([][]float64, len(scored))
	for i, smp := range scored {
		xs[i] = smp.X
	}
	all := c.Model.ConfidencesBatch(xs)
	res.Meter.ForwardPasses += int64(len(xs))
	conf := all[:len(set)]

	// Class thresholds: mean confidence of class j over samples observed as
	// j, estimated on the calibration data (I_c) together with D per §V-A4.
	// Classes absent everywhere keep threshold +inf (never confident).
	thresh := make([]float64, classes)
	counts := make([]int, classes)
	for i, smp := range scored {
		if smp.Observed != dataset.Missing {
			thresh[smp.Observed] += all[i][smp.Observed]
			counts[smp.Observed]++
		}
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
			if p := conf[i][j]; p >= thresh[j] && p > bestConf {
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
		c.pruneByClass(set, conf, cells, res)
	case PruneByNoiseRate:
		c.pruneByNoiseRate(set, conf, cells, res)
	default:
		return nil, fmt.Errorf("baselines: unknown CL variant %d", c.Variant)
	}
	res.Process = sw.Elapsed()
	return res, nil
}

func (c ConfidentLearning) pruneByClass(set dataset.Set, conf [][]float64, cells map[[2]int][]int, res *detect.Result) {
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
			sa := conf[idxs[a]][class]
			sb := conf[idxs[b]][class]
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

func (c ConfidentLearning) pruneByNoiseRate(set dataset.Set, conf [][]float64, cells map[[2]int][]int, res *detect.Result) {
	// Per off-diagonal cell (i, j): prune |cell| samples of observed class i
	// with the largest margin p_j − p_i. The confident-joint construction
	// already associates indices with cells, so prune exactly those whose
	// margin ranks highest within the class.
	for cell, idxs := range cells {
		i, j := cell[0], cell[1]
		ranked := append([]int(nil), idxs...)
		sort.Slice(ranked, func(a, b int) bool {
			ma := conf[ranked[a]][j] - conf[ranked[a]][i]
			mb := conf[ranked[b]][j] - conf[ranked[b]][i]
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
