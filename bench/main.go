// Command bench is the repository's benchmark: five named workloads, each
// run untraced for the end-to-end metrics and traced for the per-layer ones.
// It touches no program code — it drives the public functions of core, lake,
// seglog, cluster, experiments and workload, records exact per-task
// durations itself, and times each layer from outside by decorating the
// seams the code already has. See README.md in this directory.
//
//	go run ./bench -workload lake-steady -seed 1 -seconds 18 -trace 0   one run
//	go run ./bench -seed 1 -out bench/out/set.json                      the full set
//	go run ./bench -seed 1 -aa -runs 3                                  this build against itself
//
// One run prints every metric of its list by name with unit and sample
// count, then, as its last line, the JSON object BENCHMARK.json's contract
// asks for. It exits 1 when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (empty: run the full set, one child process per run)")
		seed    = flag.Uint64("seed", 1, "drives the trace, the catalog contents and the catalog noise; platform seeds are fixed in the workload files")
		seconds = flag.Float64("seconds", 18, "how long one run measures: an open loop's length, and what a closed loop's task count is sized for")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
		outDir  = flag.String("out-dir", filepath.Join("bench", "out"), "directory for result, trace and (while a run lasts) seglog files")
		out     = flag.String("out", "", "full set only: also write every run's result to this file")
		aa      = flag.Bool("aa", false, "measure this build twice (untraced sets, sides alternating) and compare the medians against the bounds")
		runs    = flag.Int("runs", 3, "-aa only: sets per side")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	if *name != "" {
		o := options{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir, setups: setupRepeats}
		res, err := runWorkload(o)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if err := res.write(resultPath(o)); err != nil {
			fatal(err)
		}
		fmt.Println(res.contractLine())
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	var err error
	if *aa {
		err = runAA(*seed, *seconds, *runs, *outDir)
	} else {
		err = runSet(*seed, *seconds, *outDir, *out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// result is one run's outcome: the contract's fields plus what the full set
// needs to compare runs.
type result struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Metrics    metricSet `json:"metrics"`
	Violations []string  `json:"violations,omitempty"`
	Warnings   []string  `json:"warnings,omitempty"`
	// TailPercentile is the highest percentile the run's latency sample
	// supports (10 samples beyond it) and TailSeconds its value.
	TailPercentile float64 `json:"tail_percentile"`
	TailSeconds    float64 `json:"tail_seconds"`
	// Digest maps dataset → hash of the noisy set detected on it.
	Digest map[string]string `json:"digest"`
}

func resultPath(o options) string {
	t := 0
	if o.traced {
		t = 1
	}
	return filepath.Join(o.outDir, fmt.Sprintf("%s.trace%d.json", o.workload, t))
}

func (r *result) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// contractLine renders the one JSON object the driver reads.
func (r *result) contractLine() string {
	type contractValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]contractValue, len(r.Metrics))}
	for name, v := range r.Metrics {
		line.Metrics[name] = contractValue{v.Value, v.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers, strings and bools
	}
	return string(raw)
}

func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %g s  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		n := ""
		if v.N > 0 {
			n = "n=" + strconv.Itoa(v.N)
		}
		fmt.Fprintf(w, "%-38s %14.6g %-6s %s\n", name, v.Value, v.Unit, n)
	}
	fmt.Fprintf(w, "highest supported latency percentile: p%g = %.6g s\n", r.TailPercentile*100, r.TailSeconds)
	for _, msg := range r.Warnings {
		fmt.Fprintln(w, "warning:", msg)
	}
	for _, msg := range r.Violations {
		fmt.Fprintln(w, "VIOLATION:", msg)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// runChild runs one workload in a child process of this binary — its own
// peak RSS and GC state — streams its output through, and reads its result
// file back.
func runChild(o options) (*result, error) {
	// A stale result file must not stand in for a run that crashed.
	os.Remove(resultPath(o))
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if o.traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", t, "-out-dir", o.outDir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(resultPath(o))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, runErr)
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", resultPath(o), err)
	}
	return &res, nil
}

// runSet runs every workload untraced and traced, back to back and never
// concurrently, then compares each pair: the gap between the two runs'
// median latency is the tracing overhead, and their noisy sets must agree.
func runSet(seed uint64, seconds float64, outDir, outFile string) error {
	var all []*result
	bad := 0
	fmt.Println()
	for _, name := range workloadNames {
		o := options{workload: name, seed: seed, seconds: seconds, outDir: outDir}
		plain, err := runChild(o)
		if err != nil {
			return err
		}
		o.traced = true
		traced, err := runChild(o)
		if err != nil {
			return err
		}
		all = append(all, plain, traced)

		overhead := ratio(traced.Metrics["trace.task_p50_s"].Value, plain.Metrics["task_p50_s"].Value) - 1
		fmt.Printf("%-38s %14.6g %-6s %s\n", "trace.overhead_frac", overhead, "ratio", name)
		for entry, h := range plain.Digest {
			if th, ok := traced.Digest[entry]; ok && th != h {
				fmt.Printf("VIOLATION: %s: traced and untraced runs detected different noisy sets on dataset %s\n", name, entry)
				bad++
			}
		}
		if !plain.Correct || !traced.Correct {
			bad++
		}
		fmt.Println()
	}
	if outFile != "" {
		raw, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outFile, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed an output check", bad)
	}
	return nil
}

// runAA measures the same build twice and prints, per metric and workload,
// how far the second side's median is from the first's against the metric's
// bound: the same code must agree with itself within the bounds the
// benchmark sets for telling two versions apart. Each side is `runs`
// untraced sets on seeds seed, seed+1, …; the sides alternate set by set, as
// a comparison of two commits should, so that the sandbox's drift falls on
// both.
func runAA(seed uint64, seconds float64, runs int, outDir string) error {
	type row struct {
		Workload, Metric string
		Runs             int
		First, Second    float64 // medians
		Worse, Bound     float64
		Breach           bool
	}
	// samples[side][workload][metric] holds one value per run.
	var samples [2]map[string]map[string][]float64
	for side := range samples {
		samples[side] = make(map[string]map[string][]float64)
	}
	for r := 0; r < runs; r++ {
		for side := range samples {
			for _, name := range workloadNames {
				o := options{workload: name, seed: seed + uint64(r), seconds: seconds, outDir: outDir}
				res, err := runChild(o)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s failed an output check", name)
				}
				if samples[side][name] == nil {
					samples[side][name] = make(map[string][]float64)
				}
				for metric, v := range res.Metrics {
					samples[side][name][metric] = append(samples[side][name][metric], v.Value)
				}
			}
		}
	}
	var rows []row
	breaches := 0
	fmt.Printf("\nmedians of %d run(s) a side\n%-16s %-20s %12s %12s %8s %6s\n", runs, "workload", "metric", "first", "second", "worse", "bound")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a, b := median(samples[0][name][d.Name]), median(samples[1][name][d.Name])
			worse := ratio(b-a, a)
			if d.Better == "higher" {
				worse = ratio(a-b, a)
			}
			r := row{name, d.Name, runs, a, b, worse, d.Bound, worse > d.Bound}
			rows = append(rows, r)
			mark := ""
			if r.Breach {
				breaches++
				mark = "  BREACH"
			}
			fmt.Printf("%-16s %-20s %12.6g %12.6g %+8.3f %6.2f%s\n", name, d.Name, a, b, worse, d.Bound, mark)
		}
	}
	raw, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "aa.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) moved by more than their bound between two measurements of the same build", breaches)
	}
	return nil
}
