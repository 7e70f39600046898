package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enld/internal/obs"
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

// lakeExposition builds a registry carrying the exact metric families the
// lake service exports, so SummarizeReader is tested against a real
// WritePrometheus byte stream rather than hand-typed text.
func lakeExposition(t *testing.T) *bytes.Buffer {
	t.Helper()
	reg := obs.NewRegistry()
	outcome := func(v string, n uint64) {
		reg.Counter("enld_lake_tasks_total", "h", obs.Label{Key: "outcome", Value: v}).Add(n)
	}
	outcome("ok", 40)
	outcome("degraded", 3)
	outcome("dead_letter", 1)
	outcome("shed", 6)
	outcome("abandoned", 2)
	buckets := []float64{0.01, 0.1, 1, 10}
	for i := 0; i < 44; i++ {
		reg.Histogram("enld_lake_task_seconds", "h", buckets).Observe(0.05)
		reg.Histogram("enld_lake_queued_seconds", "h", buckets).Observe(0.005)
	}
	f1 := func(tier string, v float64, n int) {
		h := reg.Histogram("enld_lake_detection_f1", "h",
			[]float64{0.5, 0.9, 1}, obs.Label{Key: "tier", Value: tier})
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
	}
	f1("full", 0.9, 30)
	f1("fallback", 0.5, 10)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestSummarizeReader: the scrape path reduces an exposition stream to a
// ScenarioResult — outcome taxonomy, per-tier F1,
// latency percentiles, throughput, and the SLO verdict.
func TestSummarizeReader(t *testing.T) {
	slo := SLO{
		MaxP99TaskSeconds: 1,
		MaxShedFraction:   floatp(0.5),
	}
	sum, err := SummarizeReader("scraped", lakeExposition(t), slo, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Name != "scraped" || sum.Completed != 44 {
		t.Fatalf("name=%q completed=%d, want scraped/44", sum.Name, sum.Completed)
	}
	want := map[string]int{"ok": 40, "degraded": 3, "dead_letter": 1, "shed": 6, "abandoned": 2}
	for k, v := range want {
		if sum.Outcomes[k] != v {
			t.Fatalf("outcome %s = %d, want %d (all: %v)", k, sum.Outcomes[k], v, sum.Outcomes)
		}
	}
	if got := sum.TierF1["full"]; got.Tasks != 30 || got.MeanF1 < 0.89 || got.MeanF1 > 0.91 {
		t.Fatalf("tier full F1 = %+v, want ~0.9 over 30 tasks", got)
	}
	if got := sum.TierF1["fallback"]; got.Tasks != 10 {
		t.Fatalf("tier fallback F1 = %+v, want 10 tasks", got)
	}
	if sum.TaskSeconds.Count != 44 || sum.TaskSeconds.P99 <= 0 {
		t.Fatalf("task latency summary: %+v", sum.TaskSeconds)
	}
	if sum.ThroughputRPS != 4.4 {
		t.Fatalf("throughput = %v, want 44/10s = 4.4", sum.ThroughputRPS)
	}
	if !sum.Pass || len(sum.Violations) != 0 {
		t.Fatalf("SLO verdict: pass=%v violations=%v", sum.Pass, sum.Violations)
	}

	// A shed fraction over the floor flips the verdict from the same stream.
	tight := SLO{MaxShedFraction: floatp(0.05)}
	sum, err = SummarizeReader("scraped", lakeExposition(t), tight, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pass || len(sum.Violations) == 0 {
		t.Fatalf("shed fraction 6/52 passed a 0.05 floor: %+v", sum.Violations)
	}

	// An exposition without the lake families is an error, not zeros.
	empty := obs.NewRegistry()
	empty.Counter("unrelated_total", "h").Add(1)
	var buf bytes.Buffer
	if err := empty.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := SummarizeReader("empty", &buf, SLO{}, 1); err == nil {
		t.Fatal("exposition without lake families accepted")
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
