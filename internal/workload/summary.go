package workload

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// LatencySummary is one latency sample reduced to the numbers the SLO gate
// and the BENCH_load.json artifact carry. Percentiles are exact order
// statistics of the per-task durations in the reports.
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

// Summarize reduces a replay to its ScenarioResult from the report stream,
// the authoritative per-task record, and fills in the SLO verdict. Each
// report lands in the outcome class the lake service's
// enld_lake_tasks_total gives it; shed and abandoned reports ran no
// detector and stay out of the latency samples, as they stay out of the
// service's histograms. Percentiles are exact order statistics of
// Report.Process and Report.Queued, and a tier's F1 is the mean over its
// reports that carry a result.
func Summarize(spec Spec, played *PlayResult) *ScenarioResult {
	out := &ScenarioResult{
		Name:              spec.Name,
		Seed:              spec.Seed,
		Offered:           played.Offered,
		WallSeconds:       played.WallSeconds,
		MaxSendLagSeconds: played.MaxSendLagSeconds,
		Outcomes:          map[string]int{"ok": 0, "degraded": 0, "dead_letter": 0, "shed": 0, "abandoned": 0},
	}
	var task, queued []float64
	for _, rep := range played.Reports {
		switch {
		case rep.Shed:
			out.Outcomes["shed"]++
			continue
		case rep.Abandoned:
			out.Outcomes["abandoned"]++
			continue
		case rep.DeadLettered:
			out.Outcomes["dead_letter"]++
		case rep.Degraded:
			out.Outcomes["degraded"]++
		default:
			out.Outcomes["ok"]++
		}
		out.Completed++
		task = append(task, rep.Process.Seconds())
		queued = append(queued, rep.Queued.Seconds())
		if rep.Tier != "" && rep.Result != nil {
			if out.TierF1 == nil {
				out.TierF1 = map[string]TierF1{}
			}
			q := out.TierF1[rep.Tier]
			q.MeanF1 += rep.Detection.F1
			q.Tasks++
			out.TierF1[rep.Tier] = q
		}
	}
	for tier, q := range out.TierF1 {
		q.MeanF1 /= float64(q.Tasks)
		out.TierF1[tier] = q
	}
	out.TaskSeconds = latencySummary(task)
	out.QueuedSeconds = latencySummary(queued)
	if out.WallSeconds > 0 {
		out.ThroughputRPS = float64(out.Completed) / out.WallSeconds
	}
	out.SLO = spec.SLO
	out.Violations = spec.SLO.Evaluate(out)
	out.Pass = len(out.Violations) == 0
	return out
}

// latencySummary reduces one latency sample, sorting it in place.
func latencySummary(xs []float64) LatencySummary {
	out := LatencySummary{Count: uint64(len(xs))}
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	out.P50 = quantile(xs, 0.50)
	out.P95 = quantile(xs, 0.95)
	out.P99 = quantile(xs, 0.99)
	out.Mean = sum / float64(len(xs))
	return out
}

// quantile returns the q-quantile of the sorted, non-empty xs by linear
// interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// Print writes the scenario's verdict for a run log: throughput and
// latency, every outcome class, each measured tier's detection quality in
// tier-name order, and the SLO violations.
func (r *ScenarioResult) Print(w io.Writer) {
	fmt.Fprintf(w, "[%s] completed=%d/%d offered, %.2f req/s, task p50/p95/p99 = %.3f/%.3f/%.3f s, queued p99 = %.3f s\n",
		r.Name, r.Completed, r.Offered, r.ThroughputRPS,
		r.TaskSeconds.P50, r.TaskSeconds.P95, r.TaskSeconds.P99, r.QueuedSeconds.P99)
	fmt.Fprintf(w, "[%s] outcomes: ok=%d degraded=%d dead_letter=%d shed=%d abandoned=%d max_send_lag=%.3fs\n",
		r.Name, r.Outcomes["ok"], r.Outcomes["degraded"], r.Outcomes["dead_letter"],
		r.Outcomes["shed"], r.Outcomes["abandoned"], r.MaxSendLagSeconds)
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
