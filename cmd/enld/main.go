// Command enld runs one noisy-label detection method on a generated
// workload and prints per-shard and aggregate detection quality.
//
// Usage:
//
//	enld -dataset cifar100 -eta 0.2 -method enld
//	enld -dataset emnist -eta 0.4 -method topofilter -shards 5
//	enld -dataset tinyimagenet -method all    # compare every method
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/metrics"
	"enld/internal/obs"
	"enld/internal/prof"
)

func main() {
	var (
		preset     = flag.String("dataset", "cifar100", "workload preset: emnist, cifar100, tinyimagenet")
		eta        = flag.Float64("eta", 0.2, "pair-noise rate in [0, 1)")
		method     = flag.String("method", "enld", "default, cl-1, cl-2, topofilter, enld, or all")
		seed       = flag.Uint64("seed", 1, "random seed")
		scale      = flag.Float64("scale", 1.0, "dataset size factor")
		shards     = flag.Int("shards", 0, "incremental dataset count (0 = paper count)")
		iters      = flag.Int("iters", 0, "ENLD iterations t (0 = paper default)")
		noise      = flag.String("noise", "pair", "label-noise model: pair (paper) or symmetric")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write a runtime/trace execution trace to this file")
		metricsOut = flag.String("metrics-out", "", "write final metrics in Prometheus text format to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enld:", err)
		os.Exit(1)
	}
	defer stopProf()

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		defer func() {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "enld:", err)
				return
			}
			defer f.Close()
			if err := reg.WritePrometheus(f); err != nil {
				fmt.Fprintln(os.Stderr, "enld:", err)
			}
		}()
	}

	cfg := experiments.Config{
		Seed: *seed, DataScale: *scale, Shards: *shards, Iterations: *iters,
		Noise: experiments.NoiseKind(*noise), Obs: reg,
	}
	wb, err := experiments.BuildWorkbench(*preset, *eta, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enld:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s eta=%.2f: %d classes, %d incremental datasets, setup %s\n",
		*preset, *eta, wb.Spec.Classes, len(wb.Shards),
		wb.Platform.SetupTime.Round(time.Millisecond))

	detectors := experiments.AllMethods(wb, *seed+3)
	ran := false
	for _, d := range detectors {
		if *method != "all" && d.Name() != *method {
			continue
		}
		ran = true
		runOne(d, wb.Shards)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "enld: unknown method %q\n", *method)
		os.Exit(2)
	}
}

func runOne(d detect.Detector, shards []dataset.Set) {
	var dets []metrics.Detection
	var process time.Duration
	for i, shard := range shards {
		res, err := d.Detect(shard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "enld: %s on shard %d: %v\n", d.Name(), i, err)
			os.Exit(1)
		}
		det := metrics.EvaluateDetection(shard, res.Noisy)
		dets = append(dets, det)
		process += res.Process
		fmt.Printf("  %-12s shard %2d: size=%4d noisy=%3d detected=%3d P=%.4f R=%.4f F1=%.4f (%s)\n",
			d.Name(), i, len(shard), det.Actual, det.Detected,
			det.Precision, det.Recall, det.F1, res.Process.Round(time.Millisecond))
	}
	agg := metrics.AggregateDetections(dets)
	fmt.Printf("%-12s overall: %s, mean process %s\n",
		d.Name(), agg, (process / time.Duration(len(shards))).Round(time.Millisecond))
}
