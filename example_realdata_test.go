package enld_test

import (
	"bytes"
	"fmt"
	"io"
	"log"

	"enld"
)

// Real-data path: the synthetic benchmarks in the other examples stand in
// for image datasets, but the library also ingests real data. This example
// writes a CSV dataset (in a real deployment, your exported feature table,
// or LoadIDX over EMNIST's IDX files), loads it back with LoadCSV,
// compresses the raw columns with PCA, and runs the full platform +
// detection pipeline on the result.
func Example_realData() {
	const seed = 31
	rng := enld.NewRNG(seed)

	// Stand-in for "your data": a 12-class tabular dataset with 40 raw
	// columns, only ~10 of which carry signal, exported to CSV.
	var csv bytes.Buffer
	writeCSVDataset(&csv, rng)
	raw, err := enld.LoadCSV(&csv, enld.CSVOptions{LabelColumn: -1, HasHeader: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d samples × %d raw columns\n", len(raw), len(raw[0].X))

	// Compress the raw columns: fit PCA on everything (in production: on
	// the inventory only), keep 10 components.
	pca, err := enld.FitPCA(raw, 10, rng)
	if err != nil {
		log.Fatal(err)
	}
	data, err := pca.Apply(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PCA reduced features to %d dimensions\n", len(data[0].X))

	// Corrupt labels, split, and run the standard pipeline.
	const classes = 12
	tm, err := enld.PairNoise(classes, 0.2)
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
	shards, err := enld.Shard(pool, enld.ShardSpec{Shards: 3, MinClasses: 6, MaxClasses: 8}, rng)
	if err != nil {
		log.Fatal(err)
	}
	platform, err := enld.NewPlatform(inventory, enld.DefaultPlatformConfig(classes, 10, seed))
	if err != nil {
		log.Fatal(err)
	}
	detector := &enld.ENLD{Platform: platform, Config: enld.DefaultENLDConfig(seed)}
	for i, shard := range shards {
		res, err := detector.Detect(shard)
		if err != nil {
			log.Fatal(err)
		}
		score := enld.EvaluateDetection(shard, res.Noisy)
		fmt.Printf("dataset %d: %3d samples, %2d flagged (P=%.2f R=%.2f)\n",
			i, len(shard), len(res.Noisy), score.Precision, score.Recall)
	}
	// Output:
	// loaded 720 samples × 40 raw columns
	// PCA reduced features to 10 dimensions
	// dataset 0:  82 samples, 10 flagged (P=1.00 R=1.00)
	// dataset 1:  85 samples, 22 flagged (P=0.73 R=0.76)
	// dataset 2:  73 samples, 13 flagged (P=0.92 R=0.86)
}

// writeCSVDataset emits a header row plus samples of 12 Gaussian classes
// embedded in 40 columns: 10 informative, 30 noise.
func writeCSVDataset(w io.Writer, rng *enld.RNG) {
	const (
		classes     = 12
		perClass    = 60
		informative = 10
		total       = 40
	)
	for c := 0; c < total; c++ {
		fmt.Fprintf(w, "col%d,", c)
	}
	fmt.Fprintln(w, "label")
	// Class centers in the informative subspace.
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = rng.NormVec(make([]float64, informative), 0, 4)
	}
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			for d := 0; d < total; d++ {
				v := rng.Norm()
				if d < informative {
					v += centers[c][d]
				}
				fmt.Fprintf(w, "%.5f,", v)
			}
			fmt.Fprintf(w, "%d\n", c)
		}
	}
}
