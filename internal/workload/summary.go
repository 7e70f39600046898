package workload

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"enld/internal/obs"
)

// LatencySummary is one histogram reduced to the numbers the SLO gate and
// the BENCH_load.json artifact carry. Percentiles are estimated from the
// scraped bucket layout the way Prometheus's histogram_quantile does, so
// the artifact states exactly what a production dashboard would.
type LatencySummary struct {
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	Mean  float64 `json:"mean_seconds"`
	Count uint64  `json:"count"`
}

// ScenarioResult is one scenario's measured outcome in BENCH_load.json.
type ScenarioResult struct {
	Name        string  `json:"name"`
	Seed        uint64  `json:"seed"`
	Offered     int     `json:"offered"`
	Completed   int     `json:"completed"`
	WallSeconds float64 `json:"wall_seconds"`
	// ThroughputRPS is completed tasks over the replay wall clock, in trace
	// time (speed compression undone).
	ThroughputRPS float64        `json:"throughput_rps"`
	Outcomes      map[string]int `json:"outcomes"`
	TaskSeconds   LatencySummary `json:"task_seconds"`
	QueuedSeconds LatencySummary `json:"queued_seconds"`
	BreakerOpens  int            `json:"breaker_opens"`
	// TierF1 is the per-tier detection quality of a brownout run, keyed by
	// tier name; tiers appear only when they served scored tasks.
	TierF1 map[string]TierF1 `json:"tier_f1,omitempty"`
	// MaxSendLagSeconds is the generator's worst schedule slip; a large
	// value taints the latency numbers (see PlayOptions.Obs).
	MaxSendLagSeconds float64 `json:"max_send_lag_seconds"`

	SLO        SLO      `json:"slo"`
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// TierF1 is one brownout tier's detection quality over a run.
type TierF1 struct {
	MeanF1 float64 `json:"mean_f1"`
	Tasks  uint64  `json:"tasks"`
}

// LoadSummary is the BENCH_load.json document.
type LoadSummary struct {
	GoVersion string           `json:"go_version,omitempty"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// Scenario returns the named scenario result, or nil.
func (s *LoadSummary) Scenario(name string) *ScenarioResult {
	for i := range s.Scenarios {
		if s.Scenarios[i].Name == name {
			return &s.Scenarios[i]
		}
	}
	return nil
}

// SummarizeExposition reduces a replay to its ScenarioResult by reading the
// system's own metrics exposition — a single service's registry, or a
// coordinator's merged scatter/gather /metrics view — rather than the
// in-process reports: the artifact then measures exactly what the /metrics
// endpoint exposes, one-node and N-node runs are reduced by the same code,
// and the same reduction also serves live HTTP endpoints (SummarizeScrape).
// The SLO verdict is filled in.
func SummarizeExposition(spec Spec, res *PlayResult, r io.Reader) (*ScenarioResult, error) {
	parsed, err := obs.ParseText(r)
	if err != nil {
		return nil, err
	}
	out, err := summarizeParsed(spec.Name, parsed)
	if err != nil {
		return nil, err
	}
	out.Seed = spec.Seed
	out.Offered = res.Offered
	out.WallSeconds = res.WallSeconds
	out.MaxSendLagSeconds = res.MaxSendLagSeconds
	if res.WallSeconds > 0 {
		out.ThroughputRPS = float64(out.Completed) / res.WallSeconds
	}
	finishSLO(out, spec.SLO)
	return out, nil
}

// SummarizeScrape builds a ScenarioResult from live /metrics endpoints —
// the over-HTTP mode: point it at a running lakesim (or several) and
// evaluate the same SLOs against whatever the services have served so far.
// url is a comma-separated endpoint list; multiple endpoints are scraped
// individually and merged with the cluster scatter/gather rules
// (obs.MergeExpositions) before the one shared reduction runs, so a
// multi-node run summarizes identically to an in-process one. Offered and
// throughput come from the exposition (tasks completed over wallSeconds, if
// positive), not from a replay.
func SummarizeScrape(name, url string, slo SLO, wallSeconds float64) (*ScenarioResult, error) {
	urls := strings.Split(url, ",")
	client := &http.Client{Timeout: 10 * time.Second}
	parts := make([]obs.ShardExposition, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimSpace(u)
		if u == "" {
			return nil, fmt.Errorf("workload: empty scrape URL in list %q", url)
		}
		resp, err := client.Get(u)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("workload: scraping %s: %s", u, resp.Status)
		}
		parsed, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("workload: scraping %s: %w", u, err)
		}
		shard := u
		if len(urls) == 1 {
			// A single endpoint keeps its gauges unlabelled — byte-for-byte
			// the pre-cluster scrape behavior.
			shard = ""
		}
		parts = append(parts, obs.ShardExposition{Shard: shard, Parsed: parsed})
	}
	merged, err := obs.MergeExpositions(parts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := obs.WriteParsed(&buf, merged); err != nil {
		return nil, err
	}
	return SummarizeReader(name, &buf, slo, wallSeconds)
}

// SummarizeReader is SummarizeScrape over an already-open exposition stream.
func SummarizeReader(name string, r io.Reader, slo SLO, wallSeconds float64) (*ScenarioResult, error) {
	parsed, err := obs.ParseText(r)
	if err != nil {
		return nil, err
	}
	out, err := summarizeParsed(name, parsed)
	if err != nil {
		return nil, err
	}
	out.Offered = out.Completed
	out.WallSeconds = wallSeconds
	if wallSeconds > 0 {
		out.ThroughputRPS = float64(out.Completed) / wallSeconds
	}
	finishSLO(out, slo)
	return out, nil
}

// summarizeParsed extracts the lake-service families from a parsed
// exposition. Absent families are an error, not zeros: a load run whose
// service exported nothing measured nothing.
func summarizeParsed(name string, parsed obs.Parsed) (*ScenarioResult, error) {
	out := &ScenarioResult{Name: name, Outcomes: map[string]int{}}
	for _, outcome := range []string{"ok", "degraded", "dead_letter"} {
		v, ok := parsed.Counter("enld_lake_tasks_total", map[string]string{"outcome": outcome})
		if !ok {
			return nil, fmt.Errorf("workload: scrape is missing enld_lake_tasks_total{outcome=%q} — is the service observed?", outcome)
		}
		out.Outcomes[outcome] = int(v)
		out.Completed += int(v)
	}
	// Overload outcome classes: accounted work that is not completed work.
	// Optional in the exposition so pre-overload-control scrapes still parse.
	for _, outcome := range []string{"shed", "abandoned"} {
		if v, ok := parsed.Counter("enld_lake_tasks_total", map[string]string{"outcome": outcome}); ok {
			out.Outcomes[outcome] = int(v)
		}
	}
	// Per-tier detection quality: every {tier=...} series of the F1 family.
	if fam := parsed["enld_lake_detection_f1"]; fam != nil {
		for _, s := range fam.Series {
			tier := s.Labels["tier"]
			if tier == "" || s.Count == 0 {
				continue
			}
			if out.TierF1 == nil {
				out.TierF1 = map[string]TierF1{}
			}
			out.TierF1[tier] = TierF1{MeanF1: finite(s.Sum / float64(s.Count)), Tasks: s.Count}
		}
	}
	var err error
	if out.TaskSeconds, err = latencySummary(parsed, "enld_lake_task_seconds"); err != nil {
		return nil, err
	}
	if out.QueuedSeconds, err = latencySummary(parsed, "enld_lake_queued_seconds"); err != nil {
		return nil, err
	}
	// The breaker families only exist when a breaker is configured
	// (lake.ObserveBreaker); absent means zero opens by construction.
	if v, ok := parsed.Counter("enld_lake_breaker_transitions_total",
		map[string]string{"from": "closed", "to": "open"}); ok {
		out.BreakerOpens = int(v)
	}
	if v, ok := parsed.Counter("enld_lake_breaker_transitions_total",
		map[string]string{"from": "half-open", "to": "open"}); ok {
		out.BreakerOpens += int(v)
	}
	return out, nil
}

func latencySummary(parsed obs.Parsed, family string) (LatencySummary, error) {
	s, ok := parsed.Histogram(family, nil)
	if !ok {
		return LatencySummary{}, fmt.Errorf("workload: scrape is missing histogram %s — is the service observed?", family)
	}
	out := LatencySummary{Count: s.Count}
	if s.Count > 0 {
		// finite() guards JSON encodability: a quantile can only be NaN on
		// an empty histogram, which Count == 0 already marks — the SLO
		// evaluator treats Count == 0 as unmeasurable, never as fast.
		out.P50 = finite(s.Quantile(0.50))
		out.P95 = finite(s.Quantile(0.95))
		out.P99 = finite(s.Quantile(0.99))
		out.Mean = finite(s.Sum / float64(s.Count))
	}
	return out, nil
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// finishSLO stamps the verdict.
func finishSLO(r *ScenarioResult, slo SLO) {
	r.SLO = slo
	r.Violations = slo.Evaluate(r)
	r.Pass = len(r.Violations) == 0
}

// Print writes the scenario's verdict for a run log: throughput and
// latency, every outcome class, each measured tier's detection quality in
// tier-name order, and the SLO violations.
func (r *ScenarioResult) Print(w io.Writer) {
	fmt.Fprintf(w, "[%s] completed=%d/%d offered, %.2f req/s, task p50/p95/p99 = %.3f/%.3f/%.3f s, queued p99 = %.3f s\n",
		r.Name, r.Completed, r.Offered, r.ThroughputRPS,
		r.TaskSeconds.P50, r.TaskSeconds.P95, r.TaskSeconds.P99, r.QueuedSeconds.P99)
	fmt.Fprintf(w, "[%s] outcomes: ok=%d degraded=%d dead_letter=%d shed=%d abandoned=%d breaker_opens=%d max_send_lag=%.3fs\n",
		r.Name, r.Outcomes["ok"], r.Outcomes["degraded"], r.Outcomes["dead_letter"],
		r.Outcomes["shed"], r.Outcomes["abandoned"],
		r.BreakerOpens, r.MaxSendLagSeconds)
	if len(r.TierF1) > 0 {
		tiers := make([]string, 0, len(r.TierF1))
		for tier := range r.TierF1 {
			tiers = append(tiers, tier)
		}
		sort.Strings(tiers)
		fmt.Fprintf(w, "[%s] brownout:", r.Name)
		for _, tier := range tiers {
			q := r.TierF1[tier]
			fmt.Fprintf(w, " %s: F1=%.3f over %d", tier, q.MeanF1, q.Tasks)
		}
		fmt.Fprintln(w)
	}
	if r.Pass {
		fmt.Fprintf(w, "[%s] SLO: PASS\n", r.Name)
		return
	}
	fmt.Fprintf(w, "[%s] SLO: FAIL\n", r.Name)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "[%s]   violation: %s\n", r.Name, v)
	}
}
