// Command benchsummary turns `go test -bench` output into a machine-readable
// BENCH_ci.json: one entry per benchmark with its ns/op, plus the speedup
// pairs the CI perf gate tracks (the blocked-GEMM batched forward pass versus
// the per-sample path).
//
// Usage:
//
//	go test -bench 'BenchmarkTrainEpoch|BenchmarkDetect|BenchmarkKNN|BenchmarkForward' \
//	    -benchtime 1x -run '^$' . | benchsummary -out BENCH_ci.json
//
// Within-run overhead ratios (see overheadPairs) are gated on every
// invocation, baseline or no baseline: the observability registry has a 5%
// budget over a plain training epoch (warning above it, hard failure above
// the 15% noise-proof limit).
//
// With -baseline it is also a soft perf-regression gate: every fresh entry is
// compared against the committed BENCH_ci.json. Any benchmark more than 10%
// slower gets a warn-only GitHub annotation (single-shot CI runs are noisy);
// a hot-path benchmark (see hotPaths) more than 25% slower fails the run,
// unless -warn-only downgrades that to an annotation too. Where both sides
// report B/op (b.ReportAllocs or -benchmem), a hot-path benchmark allocating
// more than 10% more bytes per op fails as well: allocation totals repeat to
// well under 1% run to run, so that gate needs no noise allowance. A
// hot-path benchmark with no fresh row fails the run even under -warn-only:
// its gate would otherwise be skipped. The comparison is embedded in the
// output JSON under "comparisons".
//
// The committed BENCH_ci.json is the latest recorded run; CI regenerates it
// per PR and uploads the result as an artifact.
//
// With -load the command instead gates a loadgen BENCH_load.json: every
// scenario must pass its declared SLOs, and with -load-baseline each load
// metric is compared against the committed artifact with the same
// warn/hard-fail tiering (wider tiers — wall-clock load numbers are noisier
// than ns/op). The SLO table is appended to $GITHUB_STEP_SUMMARY when CI
// provides one. See load.go.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result.
type Entry struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkTrainEpoch/workers=1".
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only for benchmarks that report
	// memory statistics; nil is "not measured", a pointer to 0 is "allocates
	// nothing".
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Speedup is the ratio of a baseline over its faster variant.
type Speedup struct {
	Name     string `json:"name"`
	Base     string `json:"base"`
	Parallel string `json:"parallel"`
	// Speedup is base ns/op divided by the variant's ns/op (Parallel names
	// the variant): >1 means the variant is faster.
	Speedup float64 `json:"speedup"`
}

// Comparison is one fresh-versus-baseline benchmark pair.
type Comparison struct {
	Name       string  `json:"name"`
	BaselineNs float64 `json:"baseline_ns_per_op"`
	CurrentNs  float64 `json:"current_ns_per_op"`
	// Ratio is current over baseline ns/op: >1 means slower than baseline.
	Ratio   float64 `json:"ratio"`
	HotPath bool    `json:"hot_path,omitempty"`
	// BaselineBytes and CurrentBytes are the B/op of both sides, present only
	// when both reported it.
	BaselineBytes *float64 `json:"baseline_bytes_per_op,omitempty"`
	CurrentBytes  *float64 `json:"current_bytes_per_op,omitempty"`
}

// Overhead is the within-run cost ratio of a feature-enabled benchmark
// variant over its plain base. Unlike Comparisons it needs no committed
// baseline: both ends come from the same run, so the gate is immune to
// machine-to-machine drift.
type Overhead struct {
	Name    string `json:"name"`
	Base    string `json:"base"`
	Variant string `json:"variant"`
	// Ratio is variant over base ns/op: >1 means the feature costs time.
	Ratio float64 `json:"ratio"`
	// Limit is the design budget; the gate annotates a warning above it
	// (single-shot CI runs carry several percent of noise).
	Limit float64 `json:"limit"`
	// HardLimit is the ratio the gate fails at: far enough above Limit that
	// only a real regression, not run-to-run noise, can cross it.
	HardLimit float64 `json:"hard_limit"`
}

// Summary is the BENCH_ci.json document.
type Summary struct {
	// GoMaxProcs records the parallelism of the machine that produced the
	// numbers.
	GoMaxProcs int       `json:"go_maxprocs"`
	GoVersion  string    `json:"go_version"`
	Benchmarks []Entry   `json:"benchmarks"`
	Speedups   []Speedup `json:"speedups"`
	// Overheads holds the within-run feature-cost ratios the gate enforces
	// (see overheadPairs).
	Overheads []Overhead `json:"overheads,omitempty"`
	// Comparisons holds the fresh-versus-baseline ratios when the run was
	// gated with -baseline.
	Comparisons []Comparison `json:"comparisons,omitempty"`
}

// speedupPairs lists the (name, base, variant) benchmark pairs the CI perf
// gate tracks: one blocked-GEMM forward pass over a chunk versus the same
// samples through the per-sample path.
var speedupPairs = [][3]string{
	{"gemm-batching", "BenchmarkForwardBatch/persample", "BenchmarkForwardBatch/batched"},
}

// overheadPairs lists the (name, base, variant, limit) tuples of the
// within-run overhead gate.
var overheadPairs = []Overhead{
	{
		// Observability budget: recording per-batch durations and losses into
		// lock-free histograms must stay within 5% of an unobserved epoch
		// (hard failure at 15%, beyond single-shot noise).
		Name: "obs-overhead",
		Base: "BenchmarkTrainEpoch/workers=1", Variant: "BenchmarkTrainEpoch/obs",
		Limit: 1.05, HardLimit: 1.15,
	},
}

// hotPaths lists the benchmarks the regression gate hard-fails on: the
// repeated-inference and training kernels every detector sits on. Everything
// else only ever warns — full-pipeline benchmarks run one iteration in CI and
// are too noisy to gate.
var hotPaths = map[string]bool{
	"BenchmarkDetect/enld-workers=1":   true,
	"BenchmarkTrainEpoch/workers=1":    true,
	"BenchmarkForward/batch-workers=1": true,
	"BenchmarkForwardBatch/batched":    true,
	// The ragged-tail kernels: the output layer's column tail, a short last
	// mini-batch's row tail and the output layer's weight-gradient row tail.
	"BenchmarkGemm/tail/4x26x64":  true,
	"BenchmarkGemm/tail/3x128x96": true,
	"BenchmarkGemm/tn/26x64x16":   true,
	// Storage-engine budgets: append throughput (the nosync variant — the
	// fsync one measures the disk, not the code) and recovery time of a
	// 10k-dataset history.
	"BenchmarkSeglogAppend/nosync": true,
	"BenchmarkSeglogRecovery10k":   true,
}

const (
	// warnRatio annotates any benchmark this much slower than baseline.
	warnRatio = 1.10
	// failRatio fails the gate for hot-path benchmarks this much slower.
	failRatio = 1.25
	// bytesFailRatio fails the gate for hot-path benchmarks allocating this
	// much more per op. Unlike the timing ratios it carries no noise margin:
	// bench/SPREAD.md puts the run-to-run spread of allocation totals at 0.4%.
	bytesFailRatio = 1.10
)

// compare pairs fresh entries with baseline entries by name, in fresh-entry
// order. Benchmarks absent from the baseline are skipped: a new benchmark has
// nothing to regress against.
func compare(fresh []Entry, baseline Summary) []Comparison {
	base := make(map[string]Entry, len(baseline.Benchmarks))
	for _, e := range baseline.Benchmarks {
		base[e.Name] = e
	}
	var out []Comparison
	for _, e := range fresh {
		b, ok := base[e.Name]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		c := Comparison{
			Name:       e.Name,
			BaselineNs: b.NsPerOp,
			CurrentNs:  e.NsPerOp,
			Ratio:      e.NsPerOp / b.NsPerOp,
			HotPath:    hotPaths[e.Name],
		}
		if b.BytesPerOp != nil && e.BytesPerOp != nil {
			c.BaselineBytes, c.CurrentBytes = b.BytesPerOp, e.BytesPerOp
		}
		out = append(out, c)
	}
	return out
}

// gate prints GitHub annotations for regressed comparisons and reports
// whether any hot-path benchmark crossed a hard-fail threshold: failRatio on
// time, or bytesFailRatio on B/op where both sides measured it.
func gate(w io.Writer, comparisons []Comparison) (failed bool) {
	for _, c := range comparisons {
		if c.HotPath && c.CurrentBytes != nil && *c.CurrentBytes > *c.BaselineBytes*bytesFailRatio {
			fmt.Fprintf(w, "::error::%s allocates %.0f B/op vs %.0f at baseline, above the %.0f%% hot-path limit\n",
				c.Name, *c.CurrentBytes, *c.BaselineBytes, (bytesFailRatio-1)*100)
			failed = true
		}
		switch {
		case c.HotPath && c.Ratio > failRatio:
			fmt.Fprintf(w, "::error::%s regressed %.1f%% vs baseline (%.0f -> %.0f ns/op), above the %.0f%% hot-path limit\n",
				c.Name, (c.Ratio-1)*100, c.BaselineNs, c.CurrentNs, (failRatio-1)*100)
			failed = true
		case c.Ratio > warnRatio:
			fmt.Fprintf(w, "::warning::%s is %.1f%% slower than baseline (%.0f -> %.0f ns/op); may be noise\n",
				c.Name, (c.Ratio-1)*100, c.BaselineNs, c.CurrentNs)
		}
	}
	return failed
}

// gateMissing prints an error for every hot path with no fresh row and
// reports whether any is missing. compare pairs only rows present on both
// sides, so a renamed or deleted hot-path benchmark would otherwise drop its
// gate without a word. A missing row is not noise, so -warn-only does not
// excuse it.
func gateMissing(w io.Writer, fresh []Entry) (failed bool) {
	var missing []string
	for name := range hotPaths {
		if !slices.ContainsFunc(fresh, func(e Entry) bool { return e.Name == name }) {
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "::error::hot-path benchmark %s has no fresh row, so its regression gate cannot run\n", name)
	}
	return len(missing) > 0
}

// gateOverheads prints annotations for overheads above their budget and
// reports whether any crossed the hard limit. Ratios within budget stay
// silent; between Limit and HardLimit is a warning (single-shot CI runs
// carry noise of several percent either way).
func gateOverheads(w io.Writer, overheads []Overhead) (failed bool) {
	for _, o := range overheads {
		switch {
		case o.Ratio > o.HardLimit:
			fmt.Fprintf(w, "::error::%s: %s costs %.1f%% over %s, above the %.0f%% hard limit\n",
				o.Name, o.Variant, (o.Ratio-1)*100, o.Base, (o.HardLimit-1)*100)
			failed = true
		case o.Ratio > o.Limit:
			fmt.Fprintf(w, "::warning::%s: %s costs %.1f%% over %s, above the %.0f%% budget; may be noise\n",
				o.Name, o.Variant, (o.Ratio-1)*100, o.Base, (o.Limit-1)*100)
		}
	}
	return failed
}

// benchLine matches one `go test -bench` result line: name, iteration count,
// ns/op and, when the benchmark reports memory statistics, the trailing
// B/op and allocs/op pair. Custom metrics in between are skipped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:.*\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// cpuSuffix matches the trailing -GOMAXPROCS marker go test appends to each
// benchmark name (omitted entirely when GOMAXPROCS is 1).
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse reads benchmark output and returns the entries in input order. The
// -GOMAXPROCS name suffix is stripped only when every line carries the same
// one: go appends it uniformly per run, so a non-uniform trailing -N (as in
// the cl-1/cl-2 method names on a single-core run, where go omits the
// suffix) is part of the benchmark's own name.
func parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchsummary: bad ns/op in %q: %w", sc.Text(), err)
		}
		e := Entry{Name: m[1], NsPerOp: ns}
		if m[3] != "" {
			bytes, errB := strconv.ParseFloat(m[3], 64)
			allocs, errA := strconv.ParseFloat(m[4], 64)
			if errB != nil || errA != nil {
				return nil, fmt.Errorf("benchsummary: bad B/op or allocs/op in %q", sc.Text())
			}
			e.BytesPerOp, e.AllocsPerOp = &bytes, &allocs
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	uniform := ""
	for i, e := range out {
		suffix := cpuSuffix.FindString(e.Name)
		if i == 0 {
			uniform = suffix
		}
		if suffix == "" || suffix != uniform {
			uniform = ""
			break
		}
	}
	if uniform != "" {
		for i := range out {
			out[i].Name = strings.TrimSuffix(out[i].Name, uniform)
		}
	}
	return out, nil
}

// summarize assembles the document, computing every tracked speedup whose
// both ends are present.
func summarize(entries []Entry) Summary {
	byName := make(map[string]float64, len(entries))
	for _, e := range entries {
		byName[e.Name] = e.NsPerOp
	}
	s := Summary{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Benchmarks: entries,
	}
	for _, pair := range speedupPairs {
		base, okB := byName[pair[1]]
		par, okP := byName[pair[2]]
		if !okB || !okP || par == 0 {
			continue
		}
		s.Speedups = append(s.Speedups, Speedup{
			Name: pair[0], Base: pair[1], Parallel: pair[2], Speedup: base / par,
		})
	}
	for _, o := range overheadPairs {
		base, okB := byName[o.Base]
		variant, okV := byName[o.Variant]
		if !okB || !okV || base == 0 {
			continue
		}
		o.Ratio = variant / base
		s.Overheads = append(s.Overheads, o)
	}
	return s
}

func main() {
	var (
		in       = flag.String("in", "", "benchmark output file (default: stdin)")
		out      = flag.String("out", "BENCH_ci.json", "JSON summary destination")
		baseline = flag.String("baseline", "", "committed BENCH_ci.json to gate regressions against")
		warnOnly = flag.Bool("warn-only", false, "downgrade hot-path gate failures to warnings")

		// Load mode (see load.go): gate a loadgen BENCH_load.json on its SLO
		// verdicts and against a committed baseline, and render the SLO table
		// into $GITHUB_STEP_SUMMARY when CI provides one.
		load         = flag.String("load", "", "fresh BENCH_load.json to gate (enables load mode; benchmark input is not read)")
		loadBaseline = flag.String("load-baseline", "", "committed BENCH_load.json to compare load metrics against")
		loadOut      = flag.String("load-out", "", "write the gated load summary (with comparisons) to this path")
	)
	flag.Parse()

	if *load != "" {
		runLoadMode(*load, *loadBaseline, *loadOut, *warnOnly)
		return
	}
	if *loadBaseline != "" {
		fmt.Fprintln(os.Stderr, "benchsummary: -load-baseline needs -load")
		os.Exit(1)
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsummary:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	entries, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsummary:", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchsummary: no benchmark lines found")
		os.Exit(1)
	}
	summary := summarize(entries)
	gateFailed := gateOverheads(os.Stdout, summary.Overheads)
	missingHotPath := false
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsummary:", err)
			os.Exit(1)
		}
		var prior Summary
		if err := json.Unmarshal(raw, &prior); err != nil {
			fmt.Fprintf(os.Stderr, "benchsummary: parsing baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		summary.Comparisons = compare(summary.Benchmarks, prior)
		gateFailed = gate(os.Stdout, summary.Comparisons) || gateFailed
		missingHotPath = gateMissing(os.Stdout, summary.Benchmarks)
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsummary:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsummary:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d benchmarks", *out, len(summary.Benchmarks))
	var parts []string
	for _, sp := range summary.Speedups {
		parts = append(parts, fmt.Sprintf("%s %.2fx", sp.Name, sp.Speedup))
	}
	if len(parts) > 0 {
		fmt.Printf(", speedups: %s", strings.Join(parts, ", "))
	}
	parts = parts[:0]
	for _, o := range summary.Overheads {
		parts = append(parts, fmt.Sprintf("%s %.2fx (limit %.2fx)", o.Name, o.Ratio, o.Limit))
	}
	if len(parts) > 0 {
		fmt.Printf(", overheads: %s", strings.Join(parts, ", "))
	}
	fmt.Println()
	if missingHotPath {
		os.Exit(1)
	}
	if gateFailed {
		if *warnOnly {
			fmt.Println("::warning::hot-path regression gate failed but -warn-only is set")
			return
		}
		os.Exit(1)
	}
}
