// Command experiments regenerates the paper's tables and figures on the
// synthetic substrates of this repository.
//
// Usage:
//
//	experiments -run fig5                 # one experiment
//	experiments -run all                  # everything (minutes of CPU time)
//	experiments -run fig8 -scale 0.5      # smaller/faster workloads
//	experiments -run fig9 -etas 0.1,0.4   # custom noise-rate sweep
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// paper-versus-measured outcomes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"enld/internal/experiments"
	"enld/internal/obs"
	"enld/internal/prof"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
		seed       = flag.Uint64("seed", 1, "random seed")
		scale      = flag.Float64("scale", 1.0, "dataset size factor")
		shards     = flag.Int("shards", 0, "incremental dataset count (0 = paper count)")
		epochs     = flag.Int("epochs", 0, "platform training epochs (0 = default)")
		iters      = flag.Int("iters", 0, "ENLD iterations t (0 = paper default per dataset)")
		etas       = flag.String("etas", "", "comma-separated noise rates (default 0.1,0.2,0.3,0.4)")
		csvDir     = flag.String("csv", "", "also write results as CSV files into this directory")
		noise      = flag.String("noise", "pair", "label-noise model: pair (paper) or symmetric")
		md         = flag.Bool("md", false, "also print results as Markdown tables")
		workers    = flag.Int("workers", 1, "experiments run concurrently (0 = all cores); rendered output stays in experiment order")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write a runtime/trace execution trace to this file")
		metricsOut = flag.String("metrics-out", "", "write final metrics in Prometheus text format to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopProf()

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		defer func() {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			if err := reg.WritePrometheus(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	cfg := experiments.Config{
		Seed:           *seed,
		DataScale:      *scale,
		Shards:         *shards,
		PlatformEpochs: *epochs,
		Iterations:     *iters,
		Noise:          experiments.NoiseKind(*noise),
		Obs:            reg,
		Out:            os.Stdout,
	}
	if *etas != "" {
		for _, part := range strings.Split(*etas, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bad eta %q: %v\n", part, err)
				os.Exit(2)
			}
			cfg.Etas = append(cfg.Etas, v)
		}
	}

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	}
	start := time.Now()
	results, err := experiments.RunConcurrent(ids, cfg, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	for i, id := range ids {
		if err := experiments.ExportCSV(results[i], *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *md {
			if table := experiments.ExportMarkdown(results[i]); table != "" {
				fmt.Println(table)
			}
		}
	}
	fmt.Printf("[%d experiment(s) done in %s]\n", len(ids), time.Since(start).Round(time.Millisecond))
}
