package main

import "fmt"

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names; TestBenchmarkJSONMatchesHarness keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them on its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"task_p50_s", "s", "lower", 0.25},
	{"tasks_per_s", "1/s", "higher", 0.25},
	{"within_limit_frac", "ratio", "higher", 0.25},
	{"f1", "ratio", "higher", 0.06},
	{"cpu_s_per_task", "s", "lower", 0.25},
	{"alloc_mb_per_task", "MB", "lower", 0.10},
	{"retained_heap_mb", "MB", "lower", 0.25},
}

// maxTiers is how many brownout rungs the per-layer list has room for.
const maxTiers = 4

// perLayer is what the traced run reports, prefix = module. A layer that
// does no work on a workload reports 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		// workload: generator validity, not an optimisation target.
		{Name: "workload.offered", Unit: "count", Better: "higher"},
		{Name: "workload.send_lag_p95_s", Unit: "s", Better: "lower"},
		{Name: "workload.send_lag_max_s", Unit: "s", Better: "lower"},
		{Name: "workload.generator_late", Unit: "count", Better: "lower"},

		{Name: "core.detect_calls", Unit: "count", Better: "higher"},
		{Name: "core.detect_busy_s", Unit: "s", Better: "lower"},
		{Name: "core.detect_p50_s", Unit: "s", Better: "lower"},
		{Name: "core.detect_p90_s", Unit: "s", Better: "lower"},
		{Name: "core.detect_share", Unit: "ratio", Better: "lower"},
		{Name: "core.train_visits_per_task", Unit: "count", Better: "lower"},
		{Name: "core.forward_passes_per_task", Unit: "count", Better: "lower"},
		{Name: "core.param_updates_per_task", Unit: "count", Better: "lower"},
		{Name: "core.knn_queries_per_task", Unit: "count", Better: "lower"},
		{Name: "core.span_split_s_per_task", Unit: "s", Better: "lower"},
		{Name: "core.span_knn_s_per_task", Unit: "s", Better: "lower"},
		{Name: "core.span_finetune_s_per_task", Unit: "s", Better: "lower"},
		{Name: "core.span_vote_s_per_task", Unit: "s", Better: "lower"},
		{Name: "core.detect_explained_frac", Unit: "ratio", Better: "higher"},
		{Name: "core.detect_predicted_frac", Unit: "ratio", Better: "higher"},

		{Name: "sampling.select_calls_per_task", Unit: "count", Better: "lower"},
		{Name: "sampling.select_busy_s_per_task", Unit: "s", Better: "lower"},
		{Name: "sampling.select_share_of_detect", Unit: "ratio", Better: "lower"},
		{Name: "sampling.ambiguous_mean", Unit: "count", Better: "lower"},
		{Name: "sampling.pool_mean", Unit: "count", Better: "lower"},
		{Name: "sampling.contrastive_mean", Unit: "count", Better: "lower"},

		{Name: "nn.train_epoch_s_per_1k", Unit: "s", Better: "lower"},
		{Name: "nn.predict_s_per_1k", Unit: "s", Better: "lower"},
		{Name: "nn.clone_us", Unit: "us", Better: "lower"},
		{Name: "detect.score_s_per_1k", Unit: "s", Better: "lower"},
		{Name: "kdtree.build_s_per_1k", Unit: "s", Better: "lower"},
		{Name: "kdtree.query_us", Unit: "us", Better: "lower"},

		{Name: "lake.queue_wait_p50_s", Unit: "s", Better: "lower"},
		{Name: "lake.queue_wait_p90_s", Unit: "s", Better: "lower"},
		{Name: "lake.process_p50_s", Unit: "s", Better: "lower"},
		{Name: "lake.overhead_s_per_task", Unit: "s", Better: "lower"},
		{Name: "lake.ok", Unit: "count", Better: "higher"},
		{Name: "lake.shed", Unit: "count", Better: "lower"},
		{Name: "lake.abandoned", Unit: "count", Better: "lower"},
		{Name: "lake.dead_letter", Unit: "count", Better: "lower"},
		{Name: "lake.degraded", Unit: "count", Better: "lower"},
		{Name: "lake.retries", Unit: "count", Better: "lower"},
		{Name: "lake.shed_frac", Unit: "ratio", Better: "lower"},
		{Name: "lake.failed_frac", Unit: "ratio", Better: "lower"},
	}
	for i := 0; i < maxTiers; i++ {
		m = append(m,
			metricDef{Name: fmt.Sprintf("lake.tier%d_detect_p50_s", i), Unit: "s", Better: "lower"},
			metricDef{Name: fmt.Sprintf("lake.tier%d_f1", i), Unit: "ratio", Better: "higher"},
			metricDef{Name: fmt.Sprintf("lake.tier%d_speedup", i), Unit: "ratio", Better: "higher"})
	}
	// trace: where a completed task's time goes — self time per span name
	// over total task latency; the fractions sum to 1.
	for _, name := range spanNames {
		m = append(m, metricDef{Name: "trace.self_" + name + "_frac", Unit: "ratio", Better: "lower"})
	}
	return append(m,
		metricDef{Name: "seglog.append_calls", Unit: "count", Better: "higher"},
		metricDef{Name: "seglog.append_busy_s", Unit: "s", Better: "lower"},
		metricDef{Name: "seglog.append_p50_s", Unit: "s", Better: "lower"},
		metricDef{Name: "seglog.append_p90_s", Unit: "s", Better: "lower"},
		metricDef{Name: "seglog.append_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "seglog.append_wall_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "seglog.bytes_per_user_byte", Unit: "B/B", Better: "lower"},
		metricDef{Name: "seglog.segments", Unit: "count", Better: "lower"},
		metricDef{Name: "seglog.remove_busy_s", Unit: "s", Better: "lower"},
		metricDef{Name: "seglog.compact_s", Unit: "s", Better: "lower"},
		metricDef{Name: "seglog.open_s", Unit: "s", Better: "lower"},
		metricDef{Name: "seglog.load_s_per_1k", Unit: "s", Better: "lower"},
		metricDef{Name: "seglog.recover_s", Unit: "s", Better: "lower"},
		metricDef{Name: "seglog.recovered_datasets", Unit: "count", Better: "higher"},

		metricDef{Name: "cluster.submit_calls", Unit: "count", Better: "higher"},
		metricDef{Name: "cluster.submit_p50_s", Unit: "s", Better: "lower"},
		metricDef{Name: "cluster.submit_p90_s", Unit: "s", Better: "lower"},
		metricDef{Name: "cluster.hop_s_per_task", Unit: "s", Better: "lower"},
		metricDef{Name: "cluster.coord_overhead_s_per_task", Unit: "s", Better: "lower"},
		metricDef{Name: "cluster.rerouted", Unit: "count", Better: "lower"},
		metricDef{Name: "cluster.placement_imbalance", Unit: "ratio", Better: "lower"},
		metricDef{Name: "cluster.merge_metrics_s", Unit: "s", Better: "lower"},

		// trace: the traced run's own latency (compare its median with the
		// untraced task_p50_s for the tracing overhead) and span count. The
		// 90th percentile lives here because it carries no bound: between
		// runs of one build it moved by 24–50 %.
		metricDef{Name: "trace.task_p50_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.task_p90_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.spans", Unit: "count", Better: "lower"},

		// proc: peak RSS swung by 20–28 % between runs of the same build on
		// the small-heap workloads, so it carries no bound; the end-to-end
		// memory metrics are alloc_mb_per_task and retained_heap_mb.
		metricDef{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	)
}()

// value is one reported number. N is the sample count behind a statistic
// (0 for counters and ratios of sums).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's numbers by name.
type metricSet map[string]value

func (m metricSet) set(name string, v float64, n int) { m[name] = value{Value: v, N: n} }

// finish keeps exactly the metrics of defs, in their units; one the run did
// not produce reads 0. A value the run produced under a name defs does not
// know is a harness bug and is reported.
func (m metricSet) finish(defs []metricDef) (metricSet, error) {
	out := make(metricSet, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v := m[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	for name := range m {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not in the benchmark's metric list", name)
		}
	}
	return out, nil
}
