// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) on the synthetic substrates of this repository.
// Each Run* function corresponds to one artifact (see DESIGN.md §3 for the
// full index), prints the same rows/series the paper reports, and returns a
// structured result so tests and benchmarks can assert on shapes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"enld/internal/baselines"
	"enld/internal/core"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/metrics"
	"enld/internal/nn"
	"enld/internal/obs"
)

// Config holds the knobs shared by every experiment runner.
type Config struct {
	// Seed drives all randomness; a fixed seed reproduces a run exactly.
	Seed uint64
	// DataScale multiplies the per-class sample counts of the dataset
	// presets. 1.0 is the repository default (already reduced from paper
	// scale); smaller values speed up tests and benches.
	DataScale float64
	// Shards overrides the number of incremental datasets (0 = the paper's
	// count for the preset: 10 for EMNIST, 20 for the others).
	Shards int
	// Etas are the noise rates to sweep; nil means the paper's
	// {0.1, 0.2, 0.3, 0.4}.
	Etas []float64
	// PlatformEpochs overrides general-model training epochs (0 = 30).
	PlatformEpochs int
	// Iterations overrides ENLD's t (0 = the paper's per-dataset default:
	// 5 for EMNIST, 17 for CIFAR-100 and Tiny-ImageNet).
	Iterations int
	// Noise selects the corruption model; empty means the paper's pair
	// asymmetric noise. Symmetric noise is an extension experiment (ext2).
	Noise NoiseKind
	// Workers has no effect: every detection task runs on its caller's
	// goroutine (RunConcurrent's workers run whole experiments). It stays
	// only because the benchmark harness still sets it; ROADMAP 1(b) deletes
	// it in the next benchmark change.
	Workers int
	// Watchdog enables the numerical-health watchdog (NaN/Inf detection and
	// checkpoint rollback) for every training run the platform performs.
	Watchdog nn.WatchdogConfig
	// Obs, when set, is attached to the workbench platform so every training
	// run, probability estimation and detection phase reports metrics and
	// spans into it. Nil (the default) disables observability entirely.
	Obs *obs.Registry
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
}

// NoiseKind names a label-corruption model.
type NoiseKind string

// Supported noise kinds.
const (
	NoisePair      NoiseKind = "pair"
	NoiseSymmetric NoiseKind = "symmetric"
)

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.DataScale <= 0 {
		c.DataScale = 1
	}
	if len(c.Etas) == 0 {
		c.Etas = []float64{0.1, 0.2, 0.3, 0.4}
	}
	if c.PlatformEpochs <= 0 {
		c.PlatformEpochs = 30
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// MethodScore is one (method, noise rate) cell of a Fig. 4/5/6/7-style
// comparison: detection quality aggregated over the incremental datasets,
// plus the timing and analytic-work averages behind Fig. 8.
type MethodScore struct {
	Method      string
	Eta         float64
	Agg         metrics.Aggregate
	SetupTime   time.Duration
	MeanProcess time.Duration
	MeanWork    float64
}

// FigureResult is a generic experiment outcome: named rows of scores.
type FigureResult struct {
	ID    string
	Title string
	Rows  []MethodScore
	// VsENLD holds, per baseline method, a paired sign test of ENLD's
	// per-shard F1 against that method's across all noise rates (method
	// comparisons only; nil elsewhere).
	VsENLD map[string]metrics.PairedComparison
}

// Score returns the mean F1 of a method at a noise rate, or -1 if absent.
func (f *FigureResult) Score(method string, eta float64) float64 {
	for _, r := range f.Rows {
		if r.Method == method && r.Eta == eta {
			return r.Agg.F1.Mean
		}
	}
	return -1
}

// MeanF1 averages a method's F1 across all noise rates in the result.
func (f *FigureResult) MeanF1(method string) float64 {
	var sum float64
	n := 0
	for _, r := range f.Rows {
		if r.Method == method {
			sum += r.Agg.F1.Mean
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

// MeanProcess averages a method's per-task process time across noise rates.
func (f *FigureResult) MeanProcess(method string) time.Duration {
	var sum time.Duration
	n := 0
	for _, r := range f.Rows {
		if r.Method == method {
			sum += r.MeanProcess
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// MeanWork averages a method's analytic work across noise rates.
func (f *FigureResult) MeanWork(method string) float64 {
	var sum float64
	n := 0
	for _, r := range f.Rows {
		if r.Method == method {
			sum += r.MeanWork
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// render prints the figure as a method × eta grid of P/R/F1 rows.
func (f *FigureResult) render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "method\teta\tprecision\trecall\tf1\tprocess\twork")
	rows := append([]MethodScore(nil), f.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Method != rows[j].Method {
			return rows[i].Method < rows[j].Method
		}
		return rows[i].Eta < rows[j].Eta
	})
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.4f±%.3f\t%.4f±%.3f\t%.4f±%.3f\t%s\t%.0f\n",
			r.Method, r.Eta,
			r.Agg.Precision.Mean, r.Agg.Precision.Std,
			r.Agg.Recall.Mean, r.Agg.Recall.Std,
			r.Agg.F1.Mean, r.Agg.F1.Std,
			r.MeanProcess.Round(time.Millisecond), r.MeanWork)
	}
	tw.Flush()
	if len(f.VsENLD) > 0 {
		methods := make([]string, 0, len(f.VsENLD))
		for m := range f.VsENLD {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		for _, m := range methods {
			cmp := f.VsENLD[m]
			fmt.Fprintf(w, "sign test enld vs %s: %d wins / %d losses / %d ties (p = %.4f)\n",
				m, cmp.Wins, cmp.Losses, cmp.Ties, cmp.PValue)
		}
	}
	fmt.Fprintln(w)
}

// runDetector applies d to every shard and aggregates detection metrics,
// process time and analytic work. The per-shard detections are returned for
// paired significance testing.
func runDetector(d detect.Detector, shards []dataset.Set) (metrics.Aggregate, time.Duration, float64, []metrics.Detection, error) {
	var dets []metrics.Detection
	var totalProcess time.Duration
	var totalWork float64
	for _, shard := range shards {
		res, err := d.Detect(shard)
		if err != nil {
			return metrics.Aggregate{}, 0, 0, nil, fmt.Errorf("%s: %w", d.Name(), err)
		}
		dets = append(dets, metrics.EvaluateDetection(shard, res.Noisy))
		totalProcess += res.Process
		totalWork += res.Meter.Total()
	}
	n := time.Duration(len(shards))
	return metrics.AggregateDetections(dets), totalProcess / n, totalWork / float64(len(shards)), dets, nil
}

// StandardMethods builds the §V-A4 method set for a prepared workbench:
// Default, CL-1, CL-2, TopoFilter and ENLD.
func StandardMethods(wb *Workbench, topoSeed uint64) []detect.Detector {
	return standardMethods(wb.Platform, wb.Inventory, wb.ENLDCfg, topoSeed)
}

// standardMethods builds the §V-A4 method set sharing the platform's general
// model: Default, CL-1, CL-2, TopoFilter and ENLD.
func standardMethods(p *core.Platform, inventory dataset.Set, enldCfg core.Config, topoSeed uint64) []detect.Detector {
	return []detect.Detector{
		baselines.Default{Model: p.Model},
		baselines.ConfidentLearning{Model: p.Model, Variant: baselines.PruneByClass, Calibration: p.Ic},
		baselines.ConfidentLearning{Model: p.Model, Variant: baselines.PruneByNoiseRate, Calibration: p.Ic},
		baselines.TopoFilter{
			Arch: p.Config.Arch, InputDim: p.Config.InputDim, Classes: p.Config.Classes,
			Inventory: inventory, Config: baselines.DefaultTopoFilterConfig(topoSeed),
		},
		&core.ENLD{Platform: p, Config: enldCfg},
	}
}
