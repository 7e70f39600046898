// Package sampling implements contrastive sampling (Algorithm 2 of the
// paper) and the alternative sample-selection policies of §V-A5 that the
// Fig. 10 experiment compares it against.
//
// All strategies answer the same question: given the ambiguous samples A of
// an incremental dataset and a pool of high-quality inventory samples H',
// which pool samples should join the fine-tuning set? Contrastive sampling
// estimates each ambiguous sample's true label from the conditional
// probability P̃(y*|ỹ) and picks the k nearest high-quality samples of that
// label in feature space; the baselines pick by confidence, entropy, or at
// random.
package sampling

import (
	"errors"
	"fmt"
	"sort"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/kdtree"
	"enld/internal/mat"
	"enld/internal/noise"
	"enld/internal/obs"
)

// Request carries everything a strategy may need. Feature and confidence
// slices are parallel to their sample sets and must be computed under the
// *current* model, since fine-grained NLD re-samples after every iteration
// with updated representations.
//
// A caller may refill one Request in place between Select calls (core does,
// once per iteration), so a strategy must not keep the request or any of its
// slices after Select returns.
type Request struct {
	// Ambiguous is the set A of samples whose predicted label disagrees
	// with their observed label, with features under the current model.
	Ambiguous         dataset.Set
	AmbiguousFeatures [][]float64

	// Pool is H', the high-quality inventory candidates restricted to
	// label(D), with per-sample features, max-confidence and entropy.
	// Contrastive sampling draws from this curated pool.
	Pool            dataset.Set
	PoolFeatures    [][]float64
	PoolConfidences []float64
	PoolEntropies   []float64
	// PoolPredicted is argmax M(x,θ) per pool sample; the Pseudo policy
	// substitutes it for the observed label.
	PoolPredicted []int

	// RawPool is the uncurated candidate set I_c the §V-A5 baseline
	// policies select from ("uniformly and randomly selects samples in
	// I_c", "... according to outputs of current model in I_c"): no
	// high-quality filter, so it contains noisy inventory samples. When
	// empty, baseline policies fall back to Pool.
	RawPool            dataset.Set
	RawPoolConfidences []float64
	RawPoolEntropies   []float64
	RawPoolPredicted   []int

	// Cond is the estimated conditional probability P̃(y* = j | ỹ = i).
	Cond noise.Conditional
	// K is the contrastive-samples-size hyperparameter: each strategy
	// selects (up to) K·|A| samples.
	K int

	RNG   *mat.RNG
	Meter *cost.Meter

	// Obs, when set, receives phase spans ("detect/estimate" for the
	// conditional-probability label draws, "detect/knn" for index build and
	// neighbor queries). Nil disables them.
	Obs *obs.Registry
}

// Validate checks the request's internal consistency.
func (r *Request) Validate() error {
	switch {
	case r.K <= 0:
		return fmt.Errorf("sampling: k = %d", r.K)
	case r.RNG == nil:
		return errors.New("sampling: nil RNG")
	case len(r.AmbiguousFeatures) != len(r.Ambiguous):
		return errors.New("sampling: ambiguous features length mismatch")
	case len(r.PoolFeatures) != len(r.Pool):
		return errors.New("sampling: pool features length mismatch")
	case len(r.PoolConfidences) != len(r.Pool):
		return errors.New("sampling: pool confidences length mismatch")
	case len(r.PoolEntropies) != len(r.Pool):
		return errors.New("sampling: pool entropies length mismatch")
	case len(r.PoolPredicted) != len(r.Pool):
		return errors.New("sampling: pool predictions length mismatch")
	case len(r.RawPoolConfidences) != len(r.RawPool):
		return errors.New("sampling: raw pool confidences length mismatch")
	case len(r.RawPoolEntropies) != len(r.RawPool):
		return errors.New("sampling: raw pool entropies length mismatch")
	case len(r.RawPoolPredicted) != len(r.RawPool):
		return errors.New("sampling: raw pool predictions length mismatch")
	}
	return nil
}

// rawView returns the candidate set baseline policies select from: RawPool
// when provided, else the curated pool.
func (r *Request) rawView() (dataset.Set, []float64, []float64, []int) {
	if len(r.RawPool) > 0 {
		return r.RawPool, r.RawPoolConfidences, r.RawPoolEntropies, r.RawPoolPredicted
	}
	return r.Pool, r.PoolConfidences, r.PoolEntropies, r.PoolPredicted
}

// budget returns the target selection size K·|A|, capped at poolSize.
func (r *Request) budget(poolSize int) int {
	b := r.K * len(r.Ambiguous)
	if b > poolSize {
		b = poolSize
	}
	return b
}

// Strategy selects contrastive samples for fine-tuning. The returned set may
// contain repeated samples: a pool sample chosen for several ambiguous
// samples appears once per choice, which re-weights it in the subsequent
// training exactly as §IV-D describes.
type Strategy interface {
	Name() string
	Select(r *Request) (dataset.Set, error)
}

// Contrastive is the paper's strategy (Algorithm 2). For each ambiguous
// sample it draws a candidate true label j ~ P̃(·|ỹ) restricted to the
// pool's labels, then takes the k nearest pool samples of label j by
// Euclidean distance in feature space, via per-class KD-trees.
type Contrastive struct {
	// SameLabel short-circuits the probability draw and uses j = ỹ directly.
	// This is the ENLD-4 ablation of §V-I.
	SameLabel bool
	// Brute disables the per-class KD-trees and scans the pool linearly —
	// the O(c·|A|·|H'|) baseline of §IV-D's implementation note, kept for
	// the complexity-ablation experiment and differential testing.
	Brute bool
}

// Name implements Strategy.
func (c Contrastive) Name() string {
	switch {
	case c.SameLabel:
		return "contrastive-samelabel"
	case c.Brute:
		return "contrastive-brute"
	default:
		return "contrastive"
	}
}

// Select implements Strategy.
func (c Contrastive) Select(r *Request) (dataset.Set, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(r.Ambiguous) == 0 || len(r.Pool) == 0 {
		return nil, nil
	}
	// Group pool points by label (§IV-D implementation note).
	byLabel := make(map[int][]kdtree.Point)
	for i, smp := range r.Pool {
		if smp.Observed == dataset.Missing {
			continue
		}
		byLabel[smp.Observed] = append(byLabel[smp.Observed], kdtree.Point{Vec: r.PoolFeatures[i], Payload: i})
	}
	poolLabels := make(map[int]bool, len(byLabel))
	for l := range byLabel {
		poolLabels[l] = true
	}
	// Draw every candidate label first, in input order, so the estimate
	// span covers exactly the draws. (The index build below consumes no
	// randomness, so drawing before it leaves the RNG stream unchanged.)
	estSpan := r.Obs.StartSpan("detect/estimate")
	draws := make([]int, len(r.Ambiguous))
	for i, smp := range r.Ambiguous {
		if c.SameLabel {
			draws[i] = smp.Observed
		} else {
			draws[i] = r.Cond.Sample(smp.Observed, poolLabels, r.RNG)
		}
	}
	estSpan.End()
	// Build one KD-tree per label unless running the brute-force ablation,
	// then query each ambiguous sample's neighbors in input order through
	// one reused scratch (no per-query allocation).
	knnSpan := r.Obs.StartSpan("detect/knn")
	defer knnSpan.End()
	var index *kdtree.ClassIndex
	if !c.Brute {
		var err error
		if index, err = kdtree.BuildClassIndex(byLabel); err != nil {
			return nil, err
		}
	}
	var scratch kdtree.Scratch
	out := make(dataset.Set, 0, r.K*len(r.Ambiguous))
	for i, j := range draws {
		var nbrs []kdtree.Neighbor
		if c.Brute {
			nbrs = kdtree.BruteKNearest(byLabel[j], r.AmbiguousFeatures[i], r.K)
		} else {
			var err error
			if nbrs, err = index.KNearestInto(&scratch, j, r.AmbiguousFeatures[i], r.K); err != nil {
				return nil, err
			}
		}
		for _, nb := range nbrs {
			out = append(out, r.Pool[nb.Point.Payload])
		}
	}
	if r.Meter != nil {
		r.Meter.KNNQueries += int64(len(r.Ambiguous))
	}
	return out, nil
}

// Random selects K·|A| samples uniformly at random from the raw candidate
// set I_c (Random-ENLD).
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Select implements Strategy.
func (Random) Select(r *Request) (dataset.Set, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	pool, _, _, _ := r.rawView()
	b := r.budget(len(pool))
	if b == 0 {
		return nil, nil
	}
	perm := r.RNG.Perm(len(pool))
	out := make(dataset.Set, 0, b)
	for _, idx := range perm[:b] {
		out = append(out, pool[idx])
	}
	return out, nil
}

// byScore returns the top-budget samples of pool ranked by score (descending
// when desc), breaking score ties by pool index for determinism.
func byScore(r *Request, pool dataset.Set, scores []float64, desc bool) dataset.Set {
	b := r.budget(len(pool))
	if b == 0 {
		return nil
	}
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool {
		sa, sc := scores[idx[a]], scores[idx[c]]
		if sa != sc {
			if desc {
				return sa > sc
			}
			return sa < sc
		}
		return idx[a] < idx[c]
	})
	out := make(dataset.Set, 0, b)
	for _, i := range idx[:b] {
		out = append(out, pool[i])
	}
	return out
}

// HighestConfidence selects the I_c samples the current model is most
// confident about (HC-ENLD) — likely-clean references.
type HighestConfidence struct{}

// Name implements Strategy.
func (HighestConfidence) Name() string { return "highest-confidence" }

// Select implements Strategy.
func (HighestConfidence) Select(r *Request) (dataset.Set, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	pool, conf, _, _ := r.rawView()
	return byScore(r, pool, conf, true), nil
}

// LeastConfidence selects the I_c samples the model is least confident about
// (LC-ENLD) — the active-learning uncertainty heuristic, which §V-D shows
// transfers poorly to noisy label detection.
type LeastConfidence struct{}

// Name implements Strategy.
func (LeastConfidence) Name() string { return "least-confidence" }

// Select implements Strategy.
func (LeastConfidence) Select(r *Request) (dataset.Set, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	pool, conf, _, _ := r.rawView()
	return byScore(r, pool, conf, false), nil
}

// Entropy selects the I_c samples with the highest predictive entropy
// (Entropy-ENLD).
type Entropy struct{}

// Name implements Strategy.
func (Entropy) Name() string { return "entropy" }

// Select implements Strategy.
func (Entropy) Select(r *Request) (dataset.Set, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	pool, _, ent, _ := r.rawView()
	return byScore(r, pool, ent, true), nil
}

// Pseudo selects the highest-confidence I_c samples and replaces their
// observed labels with the model's predictions (Pseudo-ENLD).
type Pseudo struct{}

// Name implements Strategy.
func (Pseudo) Name() string { return "pseudo" }

// Select implements Strategy.
func (Pseudo) Select(r *Request) (dataset.Set, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	pool, conf, _, pred := r.rawView()
	chosen := byScore(r, pool, conf, true)
	// byScore returns copies of the samples, so relabeling is safe, but the
	// predicted labels must be looked up by identity in the pool.
	predByID := make(map[int]int, len(pool))
	for i, smp := range pool {
		predByID[smp.ID] = pred[i]
	}
	for i := range chosen {
		chosen[i].Observed = predByID[chosen[i].ID]
	}
	return chosen, nil
}

// All returns every strategy of §V-A5 keyed by name, with the paper's
// contrastive sampling first.
func All() []Strategy {
	return []Strategy{
		Contrastive{},
		Random{},
		HighestConfidence{},
		LeastConfidence{},
		Entropy{},
		Pseudo{},
	}
}
