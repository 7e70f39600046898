package workload

import (
	"fmt"
	"sort"
)

// SLO declares a scenario's service-level objectives. Zero-valued latency
// and throughput fields are unset (no objective); the count limits use
// pointers because zero is the interesting value there ("zero dead-letters
// at steady state", "nothing abandoned at shutdown").
type SLO struct {
	MaxP50TaskSeconds   float64 `json:"max_p50_task_seconds,omitempty"`
	MaxP95TaskSeconds   float64 `json:"max_p95_task_seconds,omitempty"`
	MaxP99TaskSeconds   float64 `json:"max_p99_task_seconds,omitempty"`
	MaxP99QueuedSeconds float64 `json:"max_p99_queued_seconds,omitempty"`
	MinThroughputRPS    float64 `json:"min_throughput_rps,omitempty"`
	MaxDeadLetters      *int    `json:"max_dead_letters,omitempty"`
	MaxDegraded         *int    `json:"max_degraded,omitempty"`
	// MinCompletedRatio bounds lost work: accounted tasks (completed + shed
	// + abandoned) over offered. 1.0 demands every offered request is
	// accounted for. Shed tasks count as accounted — the client got an
	// immediate, honest rejection — while bounding how many may be rejected
	// is MaxShedFraction's job.
	MinCompletedRatio float64 `json:"min_completed_ratio,omitempty"`
	// MaxShedFraction bounds shed tasks over offered. A pointer because 0 is
	// the interesting value ("nothing may be shed at this load").
	MaxShedFraction *float64 `json:"max_shed_fraction,omitempty"`
	// MaxAbandoned bounds tasks admitted but never processed at shutdown.
	MaxAbandoned *int `json:"max_abandoned,omitempty"`
	// MinTierF1 floors the mean detection F1 per brownout tier (keyed by
	// tier name), so a brownout that holds latency by serving garbage still
	// fails the gate. A tier that served no tasks passes its floor — there
	// is no quality evidence to judge, and the shed/latency objectives
	// already police absent work.
	MinTierF1 map[string]float64 `json:"min_tier_f1,omitempty"`
}

// Empty reports whether no objective is declared.
func (s SLO) Empty() bool {
	return s.MaxP50TaskSeconds == 0 && s.MaxP95TaskSeconds == 0 && s.MaxP99TaskSeconds == 0 &&
		s.MaxP99QueuedSeconds == 0 && s.MinThroughputRPS == 0 && s.MinCompletedRatio == 0 &&
		s.MaxDeadLetters == nil && s.MaxDegraded == nil &&
		s.MaxShedFraction == nil && s.MaxAbandoned == nil && len(s.MinTierF1) == 0
}

// validate rejects objectives that cannot be met or measured.
func (s SLO) validate() error {
	if s.MaxP50TaskSeconds < 0 || s.MaxP95TaskSeconds < 0 || s.MaxP99TaskSeconds < 0 ||
		s.MaxP99QueuedSeconds < 0 || s.MinThroughputRPS < 0 {
		return fmt.Errorf("negative latency or throughput objective: %+v", s)
	}
	if s.MinCompletedRatio < 0 || s.MinCompletedRatio > 1 {
		return fmt.Errorf("min_completed_ratio %v outside [0, 1]", s.MinCompletedRatio)
	}
	if s.MaxShedFraction != nil && (*s.MaxShedFraction < 0 || *s.MaxShedFraction > 1) {
		return fmt.Errorf("max_shed_fraction %v outside [0, 1]", *s.MaxShedFraction)
	}
	for _, limit := range []struct {
		name string
		v    *int
	}{
		{"max_dead_letters", s.MaxDeadLetters}, {"max_degraded", s.MaxDegraded},
		{"max_abandoned", s.MaxAbandoned},
	} {
		if limit.v != nil && *limit.v < 0 {
			return fmt.Errorf("negative %s %d", limit.name, *limit.v)
		}
	}
	for tier, floor := range s.MinTierF1 {
		if tier == "" {
			return fmt.Errorf("min_tier_f1 has an unnamed tier")
		}
		if floor < 0 || floor > 1 {
			return fmt.Errorf("min_tier_f1[%s] = %v outside [0, 1]", tier, floor)
		}
	}
	return nil
}

// Evaluate checks r against the declared objectives and returns one
// violation string per breached objective (empty = pass). A latency
// objective whose percentile could not be measured (empty histogram) is
// itself a violation: an SLO gate that silently passes on an empty run
// would hide a dead service.
func (s SLO) Evaluate(r *ScenarioResult) []string {
	var v []string
	latency := func(name string, limit, got float64, count uint64) {
		if limit <= 0 {
			return
		}
		switch {
		case count == 0:
			v = append(v, fmt.Sprintf("%s unmeasurable (no observations), limit %.3fs", name, limit))
		case got > limit:
			v = append(v, fmt.Sprintf("%s = %.3fs, above the %.3fs limit", name, got, limit))
		}
	}
	latency("task p50", s.MaxP50TaskSeconds, r.TaskSeconds.P50, r.TaskSeconds.Count)
	latency("task p95", s.MaxP95TaskSeconds, r.TaskSeconds.P95, r.TaskSeconds.Count)
	latency("task p99", s.MaxP99TaskSeconds, r.TaskSeconds.P99, r.TaskSeconds.Count)
	latency("queued p99", s.MaxP99QueuedSeconds, r.QueuedSeconds.P99, r.QueuedSeconds.Count)

	if s.MinThroughputRPS > 0 && r.ThroughputRPS < s.MinThroughputRPS {
		v = append(v, fmt.Sprintf("throughput = %.2f req/s, below the %.2f req/s floor", r.ThroughputRPS, s.MinThroughputRPS))
	}
	count := func(name string, limit *int, got int) {
		if limit != nil && got > *limit {
			v = append(v, fmt.Sprintf("%s = %d, above the limit of %d", name, got, *limit))
		}
	}
	count("dead-lettered tasks", s.MaxDeadLetters, r.Outcomes["dead_letter"])
	count("degraded tasks", s.MaxDegraded, r.Outcomes["degraded"])
	count("abandoned tasks", s.MaxAbandoned, r.Outcomes["abandoned"])
	if s.MinCompletedRatio > 0 {
		ratio := 1.0
		accounted := r.Completed + r.Outcomes["shed"] + r.Outcomes["abandoned"]
		if r.Offered > 0 {
			ratio = float64(accounted) / float64(r.Offered)
		}
		if ratio < s.MinCompletedRatio {
			v = append(v, fmt.Sprintf("accounted ratio = %.3f (%d of %d offered), below the %.3f floor",
				ratio, accounted, r.Offered, s.MinCompletedRatio))
		}
	}
	if s.MaxShedFraction != nil && r.Offered > 0 {
		frac := float64(r.Outcomes["shed"]) / float64(r.Offered)
		if frac > *s.MaxShedFraction {
			v = append(v, fmt.Sprintf("shed fraction = %.3f (%d of %d offered), above the %.3f limit",
				frac, r.Outcomes["shed"], r.Offered, *s.MaxShedFraction))
		}
	}
	for _, tier := range sortedKeys(s.MinTierF1) {
		floor := s.MinTierF1[tier]
		q, ok := r.TierF1[tier]
		if !ok || q.Tasks == 0 {
			continue // tier never served: no quality evidence to judge
		}
		if q.MeanF1 < floor {
			v = append(v, fmt.Sprintf("tier %s mean F1 = %.3f over %d tasks, below the %.3f floor",
				tier, q.MeanF1, q.Tasks, floor))
		}
	}
	return v
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
