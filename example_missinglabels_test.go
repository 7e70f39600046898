package enld_test

import (
	"fmt"
	"log"

	"enld"
)

// Missing-label recovery (§V-H of the paper): missing labels are a special
// case of noisy labels. A fraction of an incremental dataset arrives with
// no label at all; during fine-grained detection ENLD assigns each unlabeled
// sample a pseudo label in every training step and the final label is chosen
// by majority vote. This example masks 25%/50%/75% of the labels and reports
// pseudo-label accuracy at each rate.
func Example_missingLabels() {
	const seed = 23
	rng := enld.NewRNG(seed)

	spec := enld.CIFAR100Like(seed).Scale(0.6)
	data, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	tm, err := enld.PairNoise(spec.Classes, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := enld.ApplyNoise(data, tm, rng); err != nil {
		log.Fatal(err)
	}
	inventory, pool, err := enld.SplitRatio(data, 2.0/3.0, rng)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := enld.Shard(pool, enld.ShardSpec{
		Shards: 3, MinClasses: 10, MaxClasses: 10, Drift: 0.5,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	platform, err := enld.NewPlatform(inventory,
		enld.DefaultPlatformConfig(spec.Classes, spec.FeatureDim, seed))
	if err != nil {
		log.Fatal(err)
	}
	detector := &enld.ENLD{Platform: platform, Config: enld.DefaultENLDConfig(seed)}

	for i, rate := range []float64{0.25, 0.50, 0.75} {
		shard := shards[i].Clone()
		masked, err := enld.MaskMissing(shard, rate, rng)
		if err != nil {
			log.Fatal(err)
		}
		res, err := detector.DetectFull(shard)
		if err != nil {
			log.Fatal(err)
		}
		// Score the voted pseudo labels against ground truth (synthetic data
		// retains true labels for evaluation).
		truth := map[int]int{}
		for _, smp := range shard {
			truth[smp.ID] = smp.True
		}
		correct := 0
		for id, label := range res.PseudoLabels {
			if label == truth[id] {
				correct++
			}
		}
		fmt.Printf("missing rate %.0f%%: %3d unlabeled of %3d; "+
			"pseudo labels recovered %d/%d correctly (%.1f%%)\n",
			rate*100, masked, len(shard),
			correct, len(res.PseudoLabels),
			100*float64(correct)/float64(len(res.PseudoLabels)))
	}
	// Output:
	// missing rate 25%:  48 unlabeled of 144; pseudo labels recovered 48/48 correctly (100.0%)
	// missing rate 50%:  68 unlabeled of 147; pseudo labels recovered 68/68 correctly (100.0%)
	// missing rate 75%: 117 unlabeled of 152; pseudo labels recovered 100/117 correctly (85.5%)
}
