package workload

import (
	"strings"
	"testing"
)

func intp(v int) *int { return &v }

func floatp(v float64) *float64 { return &v }

func baseResult() *ScenarioResult {
	return &ScenarioResult{
		Name:          "t",
		Offered:       100,
		Completed:     100,
		ThroughputRPS: 10,
		Outcomes:      map[string]int{"ok": 98, "degraded": 1, "dead_letter": 1},
		TaskSeconds:   LatencySummary{P50: 0.01, P95: 0.05, P99: 0.2, Count: 100},
		QueuedSeconds: LatencySummary{P50: 0.001, P95: 0.002, P99: 0.01, Count: 100},
	}
}

func TestSLOEvaluate(t *testing.T) {
	cases := []struct {
		name   string
		slo    SLO
		mutate func(*ScenarioResult)
		want   string // substring of the single expected violation; "" = pass
	}{
		{name: "empty slo passes", slo: SLO{}},
		{
			name: "all objectives at the boundary pass",
			slo: SLO{
				MaxP50TaskSeconds: 0.01, MaxP95TaskSeconds: 0.05, MaxP99TaskSeconds: 0.2,
				MaxP99QueuedSeconds: 0.01, MinThroughputRPS: 10,
				MaxDeadLetters: intp(1), MaxDegraded: intp(1),
				MinCompletedRatio: 1.0,
			},
		},
		{
			name: "p99 over limit",
			slo:  SLO{MaxP99TaskSeconds: 0.1},
			want: "task p99",
		},
		{
			name: "queued p99 over limit",
			slo:  SLO{MaxP99QueuedSeconds: 0.005},
			want: "queued p99",
		},
		{
			name: "throughput under floor",
			slo:  SLO{MinThroughputRPS: 10.5},
			want: "throughput",
		},
		{
			name: "zero dead-letters demanded",
			slo:  SLO{MaxDeadLetters: intp(0)},
			want: "dead-lettered",
		},
		{
			name:   "lost work breaches completed ratio",
			slo:    SLO{MinCompletedRatio: 1.0},
			mutate: func(r *ScenarioResult) { r.Completed = 99 },
			want:   "accounted ratio",
		},
		{
			name: "shed work is accounted, not lost",
			slo:  SLO{MinCompletedRatio: 1.0},
			mutate: func(r *ScenarioResult) {
				r.Completed = 90
				r.Outcomes["shed"] = 8
				r.Outcomes["abandoned"] = 2
			},
		},
		{
			name: "shed fraction over limit",
			slo:  SLO{MaxShedFraction: floatp(0.05)},
			mutate: func(r *ScenarioResult) {
				r.Completed = 90
				r.Outcomes["shed"] = 10
			},
			want: "shed fraction",
		},
		{
			name: "zero shedding demanded and met",
			slo:  SLO{MaxShedFraction: floatp(0)},
		},
		{
			name:   "abandoned tasks over limit",
			slo:    SLO{MaxAbandoned: intp(0)},
			mutate: func(r *ScenarioResult) { r.Outcomes["abandoned"] = 3 },
			want:   "abandoned",
		},
		{
			name: "tier quality under floor",
			slo:  SLO{MinTierF1: map[string]float64{"ann": 0.8}},
			mutate: func(r *ScenarioResult) {
				r.TierF1 = map[string]TierF1{"ann": {MeanF1: 0.7, Tasks: 40}}
			},
			want: "tier ann mean F1",
		},
		{
			name: "tier quality at floor passes",
			slo:  SLO{MinTierF1: map[string]float64{"ann": 0.8, "full": 0.9}},
			mutate: func(r *ScenarioResult) {
				r.TierF1 = map[string]TierF1{"ann": {MeanF1: 0.8, Tasks: 40}, "full": {MeanF1: 0.95, Tasks: 60}}
			},
		},
		{
			name: "unserved tier has no quality evidence",
			slo:  SLO{MinTierF1: map[string]float64{"fallback": 0.5}},
		},
		{
			name:   "empty histogram is unmeasurable, not fast",
			slo:    SLO{MaxP99TaskSeconds: 1},
			mutate: func(r *ScenarioResult) { r.TaskSeconds = LatencySummary{} },
			want:   "unmeasurable",
		},
	}
	for _, c := range cases {
		r := baseResult()
		if c.mutate != nil {
			c.mutate(r)
		}
		got := c.slo.Evaluate(r)
		if c.want == "" {
			if len(got) != 0 {
				t.Errorf("%s: unexpected violations %v", c.name, got)
			}
			continue
		}
		if len(got) != 1 || !strings.Contains(got[0], c.want) {
			t.Errorf("%s: violations = %v, want one containing %q", c.name, got, c.want)
		}
	}
}

func TestSLOEmpty(t *testing.T) {
	if !(SLO{}).Empty() {
		t.Error("zero SLO not Empty")
	}
	if (SLO{MaxP99TaskSeconds: 1}).Empty() {
		t.Error("latency objective reported Empty")
	}
	if (SLO{MaxDeadLetters: intp(0)}).Empty() {
		t.Error("zero-dead-letters objective reported Empty")
	}
	if (SLO{MaxShedFraction: floatp(0)}).Empty() {
		t.Error("zero-shed objective reported Empty")
	}
	if (SLO{MinTierF1: map[string]float64{"full": 0.9}}).Empty() {
		t.Error("tier-F1 objective reported Empty")
	}
}

func TestSLOValidate(t *testing.T) {
	for name, bad := range map[string]SLO{
		"negative latency":   {MaxP99TaskSeconds: -1},
		"ratio above one":    {MinCompletedRatio: 1.5},
		"shed fraction >1":   {MaxShedFraction: floatp(2)},
		"negative abandoned": {MaxAbandoned: intp(-1)},
		"tier floor >1":      {MinTierF1: map[string]float64{"full": 1.5}},
		"unnamed tier":       {MinTierF1: map[string]float64{"": 0.5}},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	ok := SLO{MaxP99TaskSeconds: 1, MaxShedFraction: floatp(0.2), MinTierF1: map[string]float64{"full": 0.9}}
	if err := ok.validate(); err != nil {
		t.Errorf("sound SLO rejected: %v", err)
	}
}
