package dataset

import (
	"fmt"
	"sort"

	"enld/internal/mat"
	"enld/internal/nn"
)

// SplitRatio partitions s into two disjoint sets with |first| ≈ ratio·|s|,
// shuffled by rng. The paper's inventory/incremental split uses ratio 2/3
// (I : D = 2 : 1), and model initialization splits I uniformly into I_t and
// I_c with ratio 1/2.
func SplitRatio(s Set, ratio float64, rng *mat.RNG) (first, second Set, err error) {
	if len(s) == 0 {
		return nil, nil, ErrEmptySet
	}
	if ratio <= 0 || ratio >= 1 {
		return nil, nil, fmt.Errorf("dataset: split ratio %v out of (0,1)", ratio)
	}
	order := rng.Perm(len(s))
	cut := int(float64(len(s)) * ratio)
	if cut == 0 {
		cut = 1
	}
	if cut == len(s) {
		cut = len(s) - 1
	}
	first = make(Set, 0, cut)
	second = make(Set, 0, len(s)-cut)
	for i, idx := range order {
		if i < cut {
			first = append(first, s[idx])
		} else {
			second = append(second, s[idx])
		}
	}
	return first, second, nil
}

// ShardSpec controls how the incremental pool is cut into unbalanced
// incremental datasets (§V-A1: 10 shards of 5–6 classes for EMNIST, 20
// shards of 10 classes for CIFAR-100, 20 shards of 20 classes for
// Tiny-ImageNet).
type ShardSpec struct {
	Shards     int
	MinClasses int
	MaxClasses int
	// Drift is the standard deviation of a per-(shard, class) feature-space
	// offset applied to the shard's samples. It models the paper's central
	// premise that incremental datasets have a *changed distribution*
	// relative to the inventory (§I: "the noisy label detection model
	// trained on the inventory dataset usually cannot well adapt to
	// specific incremental datasets"): each arriving batch samples the
	// class slightly differently — new capture conditions, new sources.
	// Zero disables the shift.
	Drift float64
}

// Shard cuts pool into spec.Shards unbalanced incremental datasets. Each
// shard draws a random subset of the pool's classes (between MinClasses and
// MaxClasses of them); each class's samples are split across the shards that
// selected it in random proportions, which produces the unbalanced class
// distributions the paper evaluates on. Samples of classes no shard selected
// are dropped, mirroring the fact that an incremental dataset covers only
// part of the inventory's label space.
func Shard(pool Set, spec ShardSpec, rng *mat.RNG) ([]Set, error) {
	if len(pool) == 0 {
		return nil, ErrEmptySet
	}
	if spec.Shards < 1 {
		return nil, fmt.Errorf("dataset: shard count %d", spec.Shards)
	}
	if spec.MinClasses < 1 || spec.MaxClasses < spec.MinClasses {
		return nil, fmt.Errorf("dataset: shard class range [%d, %d]", spec.MinClasses, spec.MaxClasses)
	}
	byClass := make(map[int][]int) // true class -> pool indices
	for i, smp := range pool {
		byClass[smp.True] = append(byClass[smp.True], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	if spec.MaxClasses > len(classes) {
		return nil, fmt.Errorf("dataset: shard wants up to %d classes, pool has %d", spec.MaxClasses, len(classes))
	}

	// Pick the class subset of each shard.
	shardClasses := make([][]int, spec.Shards)
	classShards := make(map[int][]int) // class -> shards that picked it
	for sh := 0; sh < spec.Shards; sh++ {
		n := spec.MinClasses
		if spec.MaxClasses > spec.MinClasses {
			n += rng.Intn(spec.MaxClasses - spec.MinClasses + 1)
		}
		perm := rng.Perm(len(classes))
		for _, pi := range perm[:n] {
			c := classes[pi]
			shardClasses[sh] = append(shardClasses[sh], c)
			classShards[c] = append(classShards[c], sh)
		}
	}

	// Distribute each class's samples over its shards in random proportions,
	// drifting each (shard, class) slice when requested.
	shards := make([]Set, spec.Shards)
	for _, c := range classes {
		owners := classShards[c]
		if len(owners) == 0 {
			continue
		}
		idxs := byClass[c]
		perm := rng.Perm(len(idxs))
		// Random positive weights produce the unbalanced split.
		weights := make([]float64, len(owners))
		var total float64
		for i := range weights {
			weights[i] = 0.25 + rng.Float64()
			total += weights[i]
		}
		start := 0
		for i, sh := range owners {
			count := int(float64(len(idxs)) * weights[i] / total)
			if i == len(owners)-1 {
				count = len(idxs) - start
			}
			var offset []float64
			if spec.Drift > 0 && count > 0 {
				dim := len(pool[idxs[perm[start]]].X)
				offset = rng.NormVec(make([]float64, dim), 0, spec.Drift)
			}
			for _, pi := range perm[start : start+count] {
				smp := pool[idxs[pi]]
				if offset != nil {
					shifted := make([]float64, len(smp.X))
					mat.Add(shifted, smp.X, offset)
					smp.X = shifted
				}
				shards[sh] = append(shards[sh], smp)
			}
			start += count
		}
	}
	return shards, nil
}

// ToExamples converts samples to nn training examples with one-hot targets
// on the observed labels. Samples with missing labels are skipped, since a
// hard target cannot be formed for them.
//
// Examples of one class share a single target row: Target slices are
// read-only (see nn.Example), and X aliases the sample's own vector.
func ToExamples(s Set, classes int) []nn.Example {
	return AppendExamples(make([]nn.Example, 0, len(s)), s, make([][]float64, classes))
}

// AppendExamples appends ToExamples' conversion of s to dst. targets is the
// caller's per-class one-hot row cache, one entry per class: nil rows are
// filled on first use and every example of class c gets targets[c] itself.
// Callers converting repeatedly (fine-tuning re-converts the contrastive set
// every epoch) pass dst[:0] and the same cache back and allocate nothing in
// steady state.
func AppendExamples(dst []nn.Example, s Set, targets [][]float64) []nn.Example {
	for _, smp := range s {
		if smp.Observed == Missing {
			continue
		}
		if targets[smp.Observed] == nil {
			targets[smp.Observed] = nn.OneHot(smp.Observed, len(targets))
		}
		dst = append(dst, nn.Example{X: smp.X, Target: targets[smp.Observed]})
	}
	return dst
}

// ToExamplesTrue converts samples to nn training examples targeting the
// ground-truth labels. Only evaluation code (e.g. the Fig. 3 experiment,
// which adds true-labelled samples by construction) may use this.
func ToExamplesTrue(s Set, classes int) []nn.Example {
	out := make([]nn.Example, 0, len(s))
	for _, smp := range s {
		out = append(out, nn.Example{X: smp.X, Target: nn.OneHot(smp.True, classes)})
	}
	return out
}
