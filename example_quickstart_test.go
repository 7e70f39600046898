package enld_test

import (
	"fmt"
	"log"

	"enld"
)

// Quickstart: generate a noisy benchmark, initialize an ENLD platform on
// inventory data, and screen incremental datasets for noisy labels.
func Example_quickstart() {
	const seed = 42

	// 1. A CIFAR100-like benchmark at reduced size, corrupted with 20% pair
	// noise (class i mislabelled as i+1).
	spec := enld.CIFAR100Like(seed).Scale(0.5)
	data, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	tm, err := enld.PairNoise(spec.Classes, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	rng := enld.NewRNG(seed)
	noisy, err := enld.ApplyNoise(data, tm, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d samples, %d classes, %d noisy labels\n",
		len(data), spec.Classes, noisy)

	// 2. Split into inventory (2/3) and an incremental pool (1/3); cut the
	// pool into small unbalanced incremental datasets as they would arrive
	// at a data platform.
	inventory, pool, err := enld.SplitRatio(data, 2.0/3.0, rng)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := enld.Shard(pool, enld.ShardSpec{
		Shards: 5, MinClasses: 10, MaxClasses: 10, Drift: 0.5,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	// 3. One-off platform setup: train the general model, estimate the
	// mislabeling probabilities.
	platform, err := enld.NewPlatform(inventory,
		enld.DefaultPlatformConfig(spec.Classes, spec.FeatureDim, seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform setup: %d inventory samples\n", len(inventory))

	// 4. Screen each arriving dataset.
	detector := &enld.ENLD{Platform: platform, Config: enld.DefaultENLDConfig(seed)}
	for i, shard := range shards {
		res, err := detector.Detect(shard)
		if err != nil {
			log.Fatal(err)
		}
		// Ground truth is available here because the data is synthetic; a
		// real deployment would just act on res.Noisy.
		score := enld.EvaluateDetection(shard, res.Noisy)
		fmt.Printf("incremental dataset %d: %3d samples, %2d flagged noisy "+
			"(precision %.2f, recall %.2f)\n",
			i, len(shard), len(res.Noisy), score.Precision, score.Recall)
	}
	// Output:
	// dataset: 4000 samples, 100 classes, 812 noisy labels
	// platform setup: 2666 inventory samples
	// incremental dataset 0: 121 samples, 37 flagged noisy (precision 0.65, recall 0.86)
	// incremental dataset 1: 102 samples, 17 flagged noisy (precision 1.00, recall 0.77)
	// incremental dataset 2: 119 samples, 22 flagged noisy (precision 0.68, recall 0.83)
	// incremental dataset 3: 127 samples, 17 flagged noisy (precision 0.88, recall 0.71)
	// incremental dataset 4: 109 samples, 16 flagged noisy (precision 1.00, recall 0.89)
}
