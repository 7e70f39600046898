package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"enld/internal/lake"
	"enld/internal/workload"
)

// Load-gate thresholds. Load latencies are wall-clock measurements of a
// multi-second replay on shared CI runners, so the tiers are wider than the
// ns/op benchmark gate: cross-machine drift of tens of percent is ordinary,
// a regression past half again the baseline is not.
const (
	loadWarnRatio = 1.10
	loadFailRatio = 1.50
	// loadLatencyFloorSeconds: percentile pairs where both sides sit under
	// this are too small for a ratio to mean anything (a 2ms → 3ms shift is
	// scheduler jitter, not a regression); they are recorded but never gated.
	loadLatencyFloorSeconds = 0.010
)

// LoadComparison is one load metric measured against the committed
// BENCH_load.json baseline. Ratio > 1 always means worse (latency ratios are
// current/baseline, the throughput ratio is baseline/current).
type LoadComparison struct {
	Scenario string  `json:"scenario"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Ratio    float64 `json:"ratio"`
	// Gated marks comparisons big enough to enforce; sub-floor latency
	// pairs are informational only.
	Gated bool `json:"gated"`
}

// loadDoc is BENCH_load.json plus the comparisons stamped in by this gate.
type loadDoc struct {
	workload.LoadSummary
	Comparisons []LoadComparison `json:"comparisons,omitempty"`
}

func readLoadSummary(path string) (*workload.LoadSummary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s workload.LoadSummary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// saturatedScenario reports whether a run went past its knee: once tasks
// were shed or served below full ENLD, latency percentiles and throughput
// measure admission's timing-dependent tier mix and the shed fraction, not
// code speed — on the same machine, back-to-back saturation runs swing task
// p95 by 3x as the full/fallback population boundary shifts. Such scenarios
// are held to their absolute SLOs only (always a hard gate); ratio
// comparisons are recorded but never enforced.
func saturatedScenario(r *workload.ScenarioResult) bool {
	return r.Outcomes["shed"] > 0 || len(belowFullTiers(r)) > 0
}

// belowFullTiers lists the brownout tiers other than full ENLD that served
// tasks in a run, as "name count" in name order.
func belowFullTiers(r *workload.ScenarioResult) []string {
	var out []string
	for tier, q := range r.TierF1 {
		if tier != lake.TierFull && q.Tasks > 0 {
			out = append(out, fmt.Sprintf("%s %d", tier, q.Tasks))
		}
	}
	slices.Sort(out)
	return out
}

// compareLoad pairs current scenarios with baseline scenarios by name.
// Scenarios absent from the baseline are skipped — a new scenario has
// nothing to regress against.
func compareLoad(cur, base *workload.LoadSummary) []LoadComparison {
	var out []LoadComparison
	for i := range cur.Scenarios {
		c := &cur.Scenarios[i]
		b := base.Scenario(c.Name)
		if b == nil {
			continue
		}
		sat := saturatedScenario(c) || saturatedScenario(b)
		latency := func(metric string, baseV, curV float64) {
			if baseV <= 0 {
				return
			}
			out = append(out, LoadComparison{
				Scenario: c.Name, Metric: metric,
				Baseline: baseV, Current: curV,
				Ratio: curV / baseV,
				Gated: !sat && (baseV >= loadLatencyFloorSeconds || curV >= loadLatencyFloorSeconds),
			})
		}
		latency("task_p50_seconds", b.TaskSeconds.P50, c.TaskSeconds.P50)
		latency("task_p95_seconds", b.TaskSeconds.P95, c.TaskSeconds.P95)
		latency("task_p99_seconds", b.TaskSeconds.P99, c.TaskSeconds.P99)
		latency("queued_p99_seconds", b.QueuedSeconds.P99, c.QueuedSeconds.P99)
		if b.ThroughputRPS > 0 && c.ThroughputRPS > 0 {
			out = append(out, LoadComparison{
				Scenario: c.Name, Metric: "throughput_rps",
				Baseline: b.ThroughputRPS, Current: c.ThroughputRPS,
				Ratio: b.ThroughputRPS / c.ThroughputRPS,
				Gated: !sat,
			})
		}
	}
	return out
}

// gateLoad enforces the two load gates: every scenario must pass its own
// SLOs (absolute, machine-independent — always a hard failure), and no gated
// baseline comparison may regress past the hard tier.
func gateLoad(w io.Writer, cur *workload.LoadSummary, comps []LoadComparison) (failed bool) {
	for _, sc := range cur.Scenarios {
		if sc.Pass {
			continue
		}
		fmt.Fprintf(w, "::error::load scenario %s violated its SLOs: %s\n",
			sc.Name, strings.Join(sc.Violations, "; "))
		failed = true
	}
	for _, c := range comps {
		switch {
		case c.Gated && c.Ratio > loadFailRatio:
			fmt.Fprintf(w, "::error::%s %s regressed %.1f%% vs baseline (%.4g -> %.4g), above the %.0f%% load limit\n",
				c.Scenario, c.Metric, (c.Ratio-1)*100, c.Baseline, c.Current, (loadFailRatio-1)*100)
			failed = true
		case c.Gated && c.Ratio > loadWarnRatio:
			fmt.Fprintf(w, "::warning::%s %s is %.1f%% worse than baseline (%.4g -> %.4g); may be runner noise\n",
				c.Scenario, c.Metric, (c.Ratio-1)*100, c.Baseline, c.Current)
		}
	}
	return failed
}

// writeLoadTable renders the human-readable SLO table — the $GITHUB_STEP_SUMMARY
// payload of the load-slo job.
func writeLoadTable(w io.Writer, cur *workload.LoadSummary, comps []LoadComparison) {
	fmt.Fprintln(w, "## Load / SLO summary")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Scenario | Offered | Throughput | Task p50/p95/p99 | Queued p99 | Dead-letter | Degraded | Shed | Abandoned | Below full | SLO |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, sc := range cur.Scenarios {
		verdict := "✅ pass"
		if !sc.Pass {
			verdict = "❌ FAIL"
		}
		tier := "—"
		if below := belowFullTiers(&sc); len(below) > 0 {
			tier = strings.Join(below, ", ")
		}
		fmt.Fprintf(w, "| %s | %d | %.2f req/s | %s / %s / %s | %s | %d | %d | %d | %d | %s | %s |\n",
			sc.Name, sc.Offered, sc.ThroughputRPS,
			fmtSeconds(sc.TaskSeconds.P50), fmtSeconds(sc.TaskSeconds.P95), fmtSeconds(sc.TaskSeconds.P99),
			fmtSeconds(sc.QueuedSeconds.P99),
			sc.Outcomes["dead_letter"], sc.Outcomes["degraded"],
			sc.Outcomes["shed"], sc.Outcomes["abandoned"], tier, verdict)
	}
	for _, sc := range cur.Scenarios {
		for _, v := range sc.Violations {
			fmt.Fprintf(w, "\n- **%s**: %s", sc.Name, v)
		}
	}
	fmt.Fprintln(w)
	if len(comps) == 0 {
		return
	}
	saturated := map[string]bool{}
	for i := range cur.Scenarios {
		saturated[cur.Scenarios[i].Name] = saturatedScenario(&cur.Scenarios[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Scenario | Metric | Baseline | Current | Ratio |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, c := range comps {
		note := ""
		switch {
		case !c.Gated && saturated[c.Scenario]:
			note = " (saturated; SLO-gated only)"
		case !c.Gated:
			note = " (below noise floor)"
		case c.Ratio > loadFailRatio:
			note = " ❌"
		case c.Ratio > loadWarnRatio:
			note = " ⚠️"
		}
		fmt.Fprintf(w, "| %s | %s | %.4g | %.4g | %.2fx%s |\n",
			c.Scenario, c.Metric, c.Baseline, c.Current, c.Ratio, note)
	}
}

func fmtSeconds(v float64) string {
	if v < 1 {
		return fmt.Sprintf("%.0fms", v*1000)
	}
	return fmt.Sprintf("%.2fs", v)
}

// runLoadMode is benchsummary's second life: gate a fresh BENCH_load.json
// against its committed baseline. It never parses benchmark text.
func runLoadMode(loadPath, baselinePath, outPath string, warnOnly bool) {
	cur, err := readLoadSummary(loadPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsummary:", err)
		os.Exit(1)
	}
	if len(cur.Scenarios) == 0 {
		fmt.Fprintf(os.Stderr, "benchsummary: %s has no scenarios\n", loadPath)
		os.Exit(1)
	}
	var comps []LoadComparison
	if baselinePath != "" {
		base, err := readLoadSummary(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsummary:", err)
			os.Exit(1)
		}
		comps = compareLoad(cur, base)
	}
	failed := gateLoad(os.Stdout, cur, comps)

	if outPath != "" {
		doc := loadDoc{LoadSummary: *cur, Comparisons: comps}
		raw, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsummary:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchsummary:", err)
			os.Exit(1)
		}
	}
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsummary: step summary:", err)
		} else {
			writeLoadTable(f, cur, comps)
			f.Close()
		}
	} else {
		writeLoadTable(os.Stdout, cur, comps)
	}

	pass := 0
	for _, sc := range cur.Scenarios {
		if sc.Pass {
			pass++
		}
	}
	fmt.Printf("load gate: %d/%d scenario(s) met their SLOs, %d baseline comparison(s)\n",
		pass, len(cur.Scenarios), len(comps))
	if failed {
		if warnOnly {
			fmt.Println("::warning::load gate failed but -warn-only is set")
			return
		}
		os.Exit(1)
	}
}
