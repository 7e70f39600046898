package enld_test

import (
	"context"
	"fmt"
	"log"

	"enld"
)

// Crowdsourcing-platform scenario (§I of the paper): a labelling platform
// holds a vetted inventory and receives batches of crowd-contributed labels
// of varying quality. Each batch is screened on arrival through the
// data-lake service layer; contributors whose batches carry too much noise
// are flagged, and accepted samples flow into the inventory.
func Example_crowdsourcing() {
	const seed = 7
	rng := enld.NewRNG(seed)

	// Vetted inventory: an EMNIST-like letter-recognition task.
	spec := enld.EMNISTLike(seed)
	data, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	inventory, pool, err := enld.SplitRatio(data, 2.0/3.0, rng)
	if err != nil {
		log.Fatal(err)
	}

	// The platform's inventory holds the vetted samples.
	inv := enld.NewMemInventory()
	if _, err := inv.AppendDataset("vetted", inventory); err != nil {
		log.Fatal(err)
	}

	platform, err := enld.NewPlatform(inventory,
		enld.DefaultPlatformConfig(spec.Classes, spec.FeatureDim, seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform ready: %d vetted samples\n", inv.Stats().Samples)

	// Crowd batches: shard the pool, then re-corrupt each batch with its
	// contributor's personal error rate.
	shards, err := enld.Shard(pool, enld.ShardSpec{
		Shards: 6, MinClasses: 5, MaxClasses: 6, Drift: 0.35,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	contributors := []struct {
		name string
		eta  float64 // personal error rate
	}{
		{"alice", 0.05}, {"bob", 0.15}, {"carol", 0.10},
		{"dave", 0.40}, {"erin", 0.08}, {"frank", 0.30},
	}
	for i := range shards {
		tm, err := enld.PairNoise(spec.Classes, contributors[i].eta)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := enld.ApplyNoise(shards[i], tm, rng); err != nil {
			log.Fatal(err)
		}
	}

	// Screen batches concurrently through the service layer.
	detector := &enld.ENLD{Platform: platform, Config: enld.DefaultENLDConfig(seed)}
	svc, err := enld.NewService(detector, 2)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	reports := svc.Run(ctx, enld.Feed(ctx, shards, 0))

	// Accept clean samples into the inventory; flag unreliable contributors.
	const rejectThreshold = 0.25
	for _, rep := range reports {
		if rep.Err != nil {
			log.Fatal(rep.Err)
		}
		c := contributors[rep.TaskID]
		noiseRate := float64(len(rep.Result.Noisy)) / float64(rep.Size)
		verdict := "accepted"
		if noiseRate > rejectThreshold {
			verdict = "REJECTED (unreliable contributor)"
		} else {
			var accepted enld.Set
			for _, smp := range shards[rep.TaskID] {
				if rep.Result.Clean[smp.ID] {
					accepted = append(accepted, smp)
				}
			}
			if _, err := inv.AppendDataset(c.name, accepted); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("batch from %-6s: %3d labels, %5.1f%% flagged noisy "+
			"(true rate %4.1f%%) -> %s\n",
			c.name, rep.Size, 100*noiseRate, 100*c.eta, verdict)
	}
	fmt.Printf("store grew to %d samples\n", inv.Stats().Samples)
	// Output:
	// platform ready: 1560 vetted samples
	// batch from alice :  42 labels,   0.0% flagged noisy (true rate  5.0%) -> accepted
	// batch from bob   : 132 labels,  16.7% flagged noisy (true rate 15.0%) -> accepted
	// batch from carol : 103 labels,  12.6% flagged noisy (true rate 10.0%) -> accepted
	// batch from dave  : 115 labels,  45.2% flagged noisy (true rate 40.0%) -> REJECTED (unreliable contributor)
	// batch from erin  : 101 labels,   5.9% flagged noisy (true rate  8.0%) -> accepted
	// batch from frank : 113 labels,  23.9% flagged noisy (true rate 30.0%) -> accepted
	// store grew to 1983 samples
}
