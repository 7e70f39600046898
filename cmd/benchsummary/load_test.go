package main

import (
	"slices"
	"strings"
	"testing"

	"enld/internal/workload"
)

func loadSummaryFixture(pass bool) *workload.LoadSummary {
	return &workload.LoadSummary{
		Scenarios: []workload.ScenarioResult{{
			Name:          "ci-short",
			Offered:       100,
			Completed:     100,
			ThroughputRPS: 6,
			Outcomes:      map[string]int{"ok": 100},
			TaskSeconds:   workload.LatencySummary{P50: 0.020, P95: 0.080, P99: 0.100, Count: 100},
			QueuedSeconds: workload.LatencySummary{P50: 0.001, P95: 0.002, P99: 0.004, Count: 100},
			Pass:          pass,
		}},
	}
}

func TestCompareLoad(t *testing.T) {
	base := loadSummaryFixture(true)
	cur := loadSummaryFixture(true)
	cur.Scenarios[0].TaskSeconds.P99 = 0.200 // 2x the baseline
	cur.Scenarios[0].ThroughputRPS = 3       // half the baseline

	comps := compareLoad(cur, base)
	byMetric := map[string]LoadComparison{}
	for _, c := range comps {
		byMetric[c.Metric] = c
	}
	if c := byMetric["task_p99_seconds"]; c.Ratio != 2 || !c.Gated {
		t.Errorf("task_p99 comparison = %+v, want ratio 2, gated", c)
	}
	if c := byMetric["throughput_rps"]; c.Ratio != 2 || !c.Gated {
		t.Errorf("throughput comparison = %+v, want ratio 2 (baseline/current), gated", c)
	}
	// Queued p99 sits under the noise floor on both sides: recorded, never
	// gated.
	if c := byMetric["queued_p99_seconds"]; c.Gated {
		t.Errorf("sub-floor queued_p99 comparison gated: %+v", c)
	}

	// A scenario missing from the baseline produces no comparisons.
	cur.Scenarios[0].Name = "brand-new"
	if got := compareLoad(cur, base); len(got) != 0 {
		t.Errorf("new scenario compared against nothing: %+v", got)
	}
}

// TestCompareLoadSaturated: a scenario driven past its knee (shed tasks or
// tasks served below full ENLD on either side) is never ratio-gated — its
// percentiles measure admission's tier mix, not code speed — but the
// comparisons are still recorded for the table.
func TestCompareLoadSaturated(t *testing.T) {
	base := loadSummaryFixture(true)
	cur := loadSummaryFixture(true)
	cur.Scenarios[0].TaskSeconds.P95 = 0.300 // 3.75x: would hard-fail if gated
	cur.Scenarios[0].Outcomes["shed"] = 10

	comps := compareLoad(cur, base)
	if len(comps) == 0 {
		t.Fatal("saturated scenario produced no comparisons")
	}
	for _, c := range comps {
		if c.Gated {
			t.Errorf("saturated scenario comparison gated: %+v", c)
		}
	}
	if gateLoad(&strings.Builder{}, cur, comps) {
		t.Error("passing saturated scenario failed the gate on a ratio")
	}

	// Serving only at full ENLD is not saturation: the ratios are gated.
	cur.Scenarios[0].Outcomes = map[string]int{"ok": 100}
	base.Scenarios[0].TierF1 = map[string]workload.TierF1{"full": {MeanF1: 0.9, Tasks: 100}}
	if comps := compareLoad(cur, base); !slices.ContainsFunc(comps, func(c LoadComparison) bool { return c.Gated }) {
		t.Errorf("full-only scenario left ungated: %+v", comps)
	}

	// One task at the fallback rung with nothing shed still marks
	// saturation, and the baseline side counts too.
	base.Scenarios[0].TierF1["fallback"] = workload.TierF1{MeanF1: 0.5, Tasks: 1}
	for _, c := range compareLoad(cur, base) {
		if c.Gated {
			t.Errorf("comparison gated despite a fallback-rung task: %+v", c)
		}
	}
	var table strings.Builder
	writeLoadTable(&table, base, nil)
	if !strings.Contains(table.String(), "| fallback 1 |") {
		t.Errorf("table lacks the below-full rung count:\n%s", table.String())
	}
}

func TestGateLoad(t *testing.T) {
	// All passing, no comparisons: silence.
	var out strings.Builder
	if gateLoad(&out, loadSummaryFixture(true), nil) {
		t.Error("clean summary failed the gate")
	}
	if out.Len() != 0 {
		t.Errorf("clean summary produced output: %q", out.String())
	}

	// An SLO failure is always a hard failure.
	out.Reset()
	failing := loadSummaryFixture(false)
	failing.Scenarios[0].Violations = []string{"task p99 = 3.000s, above the 2.000s limit"}
	if !gateLoad(&out, failing, nil) {
		t.Error("SLO-violating summary passed the gate")
	}
	if !strings.Contains(out.String(), "::error::") || !strings.Contains(out.String(), "task p99") {
		t.Errorf("gate output %q lacks the SLO error annotation", out.String())
	}

	// Ratio tiers: warn between loadWarnRatio and loadFailRatio, error past.
	out.Reset()
	warn := []LoadComparison{{Scenario: "s", Metric: "task_p99_seconds", Baseline: 0.1, Current: 0.12, Ratio: 1.2, Gated: true}}
	if gateLoad(&out, loadSummaryFixture(true), warn) {
		t.Error("warn-tier regression hard-failed")
	}
	if !strings.Contains(out.String(), "::warning::") {
		t.Errorf("warn-tier output %q lacks a warning", out.String())
	}
	out.Reset()
	hard := []LoadComparison{{Scenario: "s", Metric: "task_p99_seconds", Baseline: 0.1, Current: 0.2, Ratio: 2, Gated: true}}
	if !gateLoad(&out, loadSummaryFixture(true), hard) {
		t.Error("hard-tier regression passed")
	}
	// An ungated (sub-floor) comparison never fires, whatever its ratio.
	out.Reset()
	subfloor := []LoadComparison{{Scenario: "s", Metric: "queued_p99_seconds", Baseline: 0.001, Current: 0.005, Ratio: 5, Gated: false}}
	if gateLoad(&out, loadSummaryFixture(true), subfloor) || out.Len() != 0 {
		t.Errorf("sub-floor comparison fired: %q", out.String())
	}
}

func TestWriteLoadTable(t *testing.T) {
	var out strings.Builder
	cur := loadSummaryFixture(false)
	cur.Scenarios[0].Violations = []string{"throughput = 1.00 req/s, below the 3.00 req/s floor"}
	comps := []LoadComparison{{Scenario: "ci-short", Metric: "task_p99_seconds", Baseline: 0.1, Current: 0.2, Ratio: 2, Gated: true}}
	writeLoadTable(&out, cur, comps)
	text := out.String()
	for _, want := range []string{
		"| Scenario |", "| ci-short |", "FAIL", "throughput = 1.00 req/s",
		"| Metric |", "task_p99_seconds", "2.00x",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table lacks %q:\n%s", want, text)
		}
	}
}
