package workload

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enld/internal/detect"
	"enld/internal/lake"
	"enld/internal/metrics"
)

// TestLoadSpecFile: LoadSpec round-trips a spec written to disk and rejects
// missing files, malformed JSON, and well-formed JSON that fails validation.
func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, raw []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	raw, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(write("good.json", raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "pinned" || len(got.Phases) != 3 || got.Datasets != 8 {
		t.Fatalf("spec did not round-trip: %+v", got)
	}

	if _, err := LoadSpec(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := LoadSpec(write("broken.json", []byte("{not json"))); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	invalid := testSpec()
	invalid.Phases = nil
	raw, _ = json.Marshal(invalid)
	if _, err := LoadSpec(write("invalid.json", raw)); err == nil {
		t.Fatal("spec with no phases accepted")
	}

	// brownout is a bool: a spec still carrying a watermark object fails
	// decoding instead of being silently dropped.
	protected := testSpec()
	protected.Policy = PolicySpec{QueueDepth: 16, MaxQueueWaitMS: 200}
	protected.Brownout = true
	raw, _ = json.Marshal(protected)
	if got, err := LoadSpec(write("brownout.json", raw)); err != nil || !got.Brownout {
		t.Fatalf("brownout spec: %+v, %v", got.Brownout, err)
	}
	stale := strings.Replace(string(raw), `"brownout":true`, `"brownout":{"queue_high":10,"queue_low":2}`, 1)
	if stale == string(raw) {
		t.Fatal("test spec encoding lost its brownout key")
	}
	var typeErr *json.UnmarshalTypeError
	if _, err := LoadSpec(write("stale.json", []byte(stale))); !errors.As(err, &typeErr) {
		t.Fatalf("watermark brownout object: err = %v, want a JSON type error", err)
	}
}

// TestLoadSpecStrict: a key the Spec does not know, such as the deleted
// policy "retries", fails decoding and names the key; so does data after the
// spec object.
func TestLoadSpecStrict(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.Policy = PolicySpec{QueueDepth: 16}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	retired := strings.Replace(string(raw), `"policy":{`, `"policy":{"retries":2,`, 1)
	if retired == string(raw) {
		t.Fatal("test spec encoding lost its policy key")
	}
	for name, body := range map[string]string{
		"retries.json":  retired,
		"trailing.json": string(raw) + ` {}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSpec(path)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if name == "retries.json" && !strings.Contains(err.Error(), `"retries"`) {
			t.Fatalf("unknown key error does not name it: %v", err)
		}
	}
}

// TestLoadSummaryScenario: name lookup returns a pointer into the slice (so
// gate code can annotate in place) and nil for unknown names.
func TestLoadSummaryScenario(t *testing.T) {
	sum := LoadSummary{Scenarios: []ScenarioResult{{Name: "a"}, {Name: "b"}}}
	got := sum.Scenario("b")
	if got == nil || got != &sum.Scenarios[1] {
		t.Fatalf("Scenario(b) = %p, want &Scenarios[1] %p", got, &sum.Scenarios[1])
	}
	if sum.Scenario("c") != nil {
		t.Fatal("unknown scenario did not return nil")
	}
}

// summaryReports is a run's report stream with every outcome class: 40 ok,
// 3 degraded and 1 dead-lettered task whose processing times are 1..44 ms,
// then 6 shed and 2 abandoned ones that ran no detector.
func summaryReports() *PlayResult {
	var reps []lake.Report
	scored := func(f1 float64) (*detect.Result, metrics.Detection) {
		return detect.NewResult(), metrics.Detection{F1: f1}
	}
	for i := 0; i < 44; i++ {
		rep := lake.Report{
			TaskID:  i,
			Process: time.Duration(i+1) * time.Millisecond,
			Queued:  time.Duration(i) * time.Microsecond,
			Tier:    "full",
		}
		switch {
		case i < 30:
			rep.Result, rep.Detection = scored(0.9)
		case i < 40:
			rep.Tier = "fallback"
			rep.Result, rep.Detection = scored(0.5)
		case i < 43:
			rep.Degraded = true
			rep.Result, rep.Detection = scored(0.9)
		default:
			rep.DeadLettered = true
			rep.Err = errors.New("dead")
		}
		reps = append(reps, rep)
	}
	for i := 44; i < 52; i++ {
		rep := lake.Report{TaskID: i, Shed: i < 50, Abandoned: i >= 50, Err: errors.New("not served")}
		if rep.Abandoned {
			rep.Tier = "full"
		}
		reps = append(reps, rep)
	}
	return &PlayResult{Reports: reps, Offered: 52, WallSeconds: 10, MaxSendLagSeconds: 0.25}
}

// TestSummarize: the report stream reduces to the outcome taxonomy, exact
// latency percentiles over the tasks that ran, per-tier F1 over the scored
// ones, throughput and the SLO verdict.
func TestSummarize(t *testing.T) {
	spec := Spec{Name: "reports", Seed: 7, SLO: SLO{MaxP99TaskSeconds: 1, MaxShedFraction: floatp(0.5)}}
	sum := Summarize(spec, summaryReports())
	if sum.Name != "reports" || sum.Seed != 7 || sum.Offered != 52 || sum.Completed != 44 {
		t.Fatalf("name=%q seed=%d offered=%d completed=%d, want reports/7/52/44", sum.Name, sum.Seed, sum.Offered, sum.Completed)
	}
	want := map[string]int{"ok": 40, "degraded": 3, "dead_letter": 1, "shed": 6, "abandoned": 2}
	if len(sum.Outcomes) != len(want) {
		t.Fatalf("outcomes %v, want %v", sum.Outcomes, want)
	}
	for k, v := range want {
		if sum.Outcomes[k] != v {
			t.Fatalf("outcome %s = %d, want %d (all: %v)", k, sum.Outcomes[k], v, sum.Outcomes)
		}
	}
	// Order statistics of 1..44 ms; the shed and abandoned zeros would pull
	// every percentile down.
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	task := sum.TaskSeconds
	if task.Count != 44 || !near(task.P50, 0.0225) || !near(task.P95, 0.04185) || !near(task.P99, 0.04357) || !near(task.Mean, 0.0225) {
		t.Fatalf("task latency = %+v, want count 44, p50 22.5ms, p95 41.85ms, p99 43.57ms, mean 22.5ms", task)
	}
	if q := sum.QueuedSeconds; q.Count != 44 || !near(q.P50, 21.5e-6) {
		t.Fatalf("queued latency = %+v, want count 44, p50 21.5µs", q)
	}
	if got := sum.TierF1["full"]; got.Tasks != 33 || !near(got.MeanF1, 0.9) {
		t.Fatalf("tier full F1 = %+v, want 0.9 over 33 tasks", got)
	}
	if got := sum.TierF1["fallback"]; got.Tasks != 10 || !near(got.MeanF1, 0.5) {
		t.Fatalf("tier fallback F1 = %+v, want 0.5 over 10 tasks", got)
	}
	if len(sum.TierF1) != 2 {
		t.Fatalf("tiers %v, want full and fallback only", sum.TierF1)
	}
	if sum.ThroughputRPS != 4.4 || sum.WallSeconds != 10 || sum.MaxSendLagSeconds != 0.25 {
		t.Fatalf("throughput %v over %vs, lag %v; want 4.4 over 10s, lag 0.25", sum.ThroughputRPS, sum.WallSeconds, sum.MaxSendLagSeconds)
	}
	if !sum.Pass || len(sum.Violations) != 0 {
		t.Fatalf("SLO verdict: pass=%v violations=%v", sum.Pass, sum.Violations)
	}

	// A shed fraction over the floor flips the verdict.
	spec.SLO = SLO{MaxShedFraction: floatp(0.05)}
	if sum := Summarize(spec, summaryReports()); sum.Pass || len(sum.Violations) == 0 {
		t.Fatalf("shed fraction 6/52 passed a 0.05 floor: %+v", sum.Violations)
	}

	// A run with no reports measured nothing: the latency SLOs cannot pass.
	spec.SLO = SLO{MaxP99TaskSeconds: 1}
	if sum := Summarize(spec, &PlayResult{Offered: 3}); sum.Pass || sum.TaskSeconds.Count != 0 {
		t.Fatalf("empty report stream passed a latency SLO: %+v", sum)
	}
}

// TestReportPrintsEveryTier pins the run log's per-tier line: every tier the
// run measured is printed, in sorted order, whatever the rungs are named.
func TestReportPrintsEveryTier(t *testing.T) {
	var buf strings.Builder
	(&ScenarioResult{
		Name: "s",
		TierF1: map[string]TierF1{
			"middle":   {MeanF1: 0.5, Tasks: 2},
			"full":     {MeanF1: 0.9, Tasks: 7},
			"fallback": {MeanF1: 0.4, Tasks: 3},
		},
		Pass: true,
	}).Print(&buf)
	want := "[s] brownout: fallback: F1=0.400 over 3 full: F1=0.900 over 7 middle: F1=0.500 over 2\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("report output:\n%s\nwant line:\n%s", buf.String(), want)
	}
}
