package enld_test

import (
	"fmt"
	"log"

	"enld"
)

// Data-trading scenario (§I of the paper): a data marketplace prices
// incoming datasets by measured label quality. Each offered dataset is
// screened with ENLD; the detected noise rate discounts the price. After
// several transactions the platform runs the model update (Algorithm 4) on
// the clean inventory samples accumulated during detection, improving the
// general model it will use for future appraisals — shown by before/after
// accuracy on held-out data, as in Table II.
func Example_datamarket() {
	const (
		seed         = 11
		pricePerUnit = 0.50 // dollars per clean sample
	)
	rng := enld.NewRNG(seed)

	spec := enld.CIFAR100Like(seed).Scale(0.6)
	data, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	tm, err := enld.PairNoise(spec.Classes, 0.3)
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
	offers, err := enld.Shard(pool, enld.ShardSpec{
		Shards: 6, MinClasses: 10, MaxClasses: 10, Drift: 0.5,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	platform, err := enld.NewPlatform(inventory,
		enld.DefaultPlatformConfig(spec.Classes, spec.FeatureDim, seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("marketplace appraiser ready\n\n")

	// Held-out probe for measuring appraiser quality before/after update.
	var probe enld.Set
	for _, offer := range offers {
		probe = append(probe, offer...)
	}
	accBefore := platform.TrueAccuracy(probe)

	detector := &enld.ENLD{Platform: platform, Config: enld.DefaultENLDConfig(seed)}
	accumulated := map[int]bool{}
	var revenue float64
	for i, offer := range offers {
		res, err := detector.DetectFull(offer)
		if err != nil {
			log.Fatal(err)
		}
		noiseRate := float64(len(res.Noisy)) / float64(len(offer))
		price := pricePerUnit * float64(len(res.Clean))
		revenue += price
		fmt.Printf("offer %d: %3d samples, measured noise %5.1f%% -> pay $%.2f "+
			"(clean samples only)\n", i, len(offer), 100*noiseRate, price)
		// Clean inventory evidence accumulates across appraisals.
		for id := range res.SelectedInventory {
			accumulated[id] = true
		}
	}
	fmt.Printf("\ntotal paid out: $%.2f\n", revenue)

	// Periodic maintenance: Algorithm 4's model update on the accumulated
	// clean inventory selection.
	fmt.Printf("\nmodel update on %d accumulated clean inventory samples...\n", len(accumulated))
	if err := platform.ModelUpdate(accumulated); err != nil {
		log.Fatal(err)
	}
	accAfter := platform.TrueAccuracy(probe)
	fmt.Printf("appraiser accuracy on held-out data: %.1f%% -> %.1f%%\n",
		100*accBefore, 100*accAfter)
	// Output:
	// marketplace appraiser ready
	//
	// offer 0: 113 samples, measured noise  29.2% -> pay $40.00 (clean samples only)
	// offer 1: 126 samples, measured noise  27.0% -> pay $46.00 (clean samples only)
	// offer 2: 113 samples, measured noise  29.2% -> pay $40.00 (clean samples only)
	// offer 3: 117 samples, measured noise  25.6% -> pay $43.50 (clean samples only)
	// offer 4: 124 samples, measured noise  26.6% -> pay $45.50 (clean samples only)
	// offer 5: 153 samples, measured noise  32.7% -> pay $51.50 (clean samples only)
	//
	// total paid out: $266.50
	//
	// model update on 585 accumulated clean inventory samples...
	// appraiser accuracy on held-out data: 70.0% -> 91.4%
}
