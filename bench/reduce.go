package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"enld/internal/lake"
	"enld/internal/obs"
)

// outcome is the reduction of one replay: task classes, latencies and the
// numbers both metric lists are computed from.
type outcome struct {
	offered int
	// Every offered task lands in exactly one class.
	ok, degraded, shed, abandoned, deadLetter, missing int
	retries, rerouted                                  int

	latency []float64 // filed − due of completed (ok or degraded) tasks, seconds
	within  int       // completed tasks whose latency met the workload's limit
	queued  []float64 // Report.Queued of completed tasks
	process []float64 // Report.Process of completed tasks
	sendLag []float64 // sent − due of every offered task

	// Detection counts pooled over the distinct datasets completed (each
	// dataset once, however often it was submitted).
	tp, detected, actual int

	wall       time.Duration // first due → last report
	cpu        float64       // user+sys seconds over the replay
	allocMB    float64       // heap allocated over the replay
	retainedMB float64       // live heap after the replay and a collection

	// digest maps catalog entry (or shard) → hash of the noisy set every
	// completed task on it produced; the runs of a pair must agree on it.
	digest     map[int]string
	violations []string
}

func (o *outcome) completed() int { return o.ok + o.degraded }
func (o *outcome) failed() int    { return o.abandoned + o.deadLetter + o.missing }

func (o *outcome) violate(format string, args ...any) {
	// Keep the list readable when one cause breaks every task.
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// f1 is the detection F1 pooled over the distinct datasets completed.
// Pooling the counts, not averaging per-task F1, keeps clean datasets (where
// one false positive turns a task's F1 from 1 to 0) from dominating the
// number; counting each dataset once keeps it independent of which datasets
// the trace happens to repeat.
func (o *outcome) f1() float64 { return pooledF1(o.tp, o.detected, o.actual) }

// reduce classifies the reports, runs the per-task output checks and
// collects the samples the metrics are computed from.
func reduce(wl *Workload, p *platform, tasks []taskRecord, reports []lake.Report, wall time.Duration) *outcome {
	o := &outcome{offered: len(tasks), wall: wall, digest: make(map[int]string)}
	seen := make(map[int]bool, len(reports))
	for _, rep := range reports {
		if rep.TaskID < 0 || rep.TaskID >= len(tasks) {
			o.violate("report for unknown task %d", rep.TaskID)
			continue
		}
		if seen[rep.TaskID] {
			o.violate("task %d reported twice", rep.TaskID)
			continue
		}
		seen[rep.TaskID] = true
		t := tasks[rep.TaskID]
		o.retries += rep.Retries
		if rep.Rerouted {
			o.rerouted++
		}

		classes := 0
		for _, in := range []bool{rep.Shed, rep.Abandoned, rep.DeadLettered, rep.Degraded} {
			if in {
				classes++
			}
		}
		switch {
		case classes > 1:
			o.violate("task %d is in %d outcome classes", rep.TaskID, classes)
			o.missing++
			continue
		case rep.Shed:
			o.shed++
			continue
		case rep.Abandoned:
			o.abandoned++
			continue
		case rep.DeadLettered:
			o.deadLetter++
			continue
		case rep.Err != nil || rep.Result == nil:
			o.violate("task %d has no class and no result: %v", rep.TaskID, rep.Err)
			o.missing++
			continue
		}

		// The task claims to be complete. Wrong output makes it a failed
		// task, not a completed one.
		h := noisyHash(rep.Result.Noisy)
		prev, repeated := o.digest[t.entry]
		problem := checkPartition(p, rep)
		switch {
		case problem != "":
		case repeated && prev != h:
			problem = fmt.Sprintf("noisy set differs from an earlier submission of dataset %d", t.entry)
		case t.filed.IsZero():
			problem = "completed but its report was never stamped"
		}
		if problem != "" {
			o.violate("task %d: %s", rep.TaskID, problem)
			o.missing++
			continue
		}
		if rep.Degraded {
			o.degraded++
		} else {
			o.ok++
		}
		if !repeated {
			o.digest[t.entry] = h
			o.tp += rep.Detection.TruePositives
			o.detected += rep.Detection.Detected
			o.actual += rep.Detection.Actual
		}

		lat := t.filed.Sub(t.due).Seconds()
		o.latency = append(o.latency, lat)
		if lat <= wl.LimitSeconds {
			o.within++
		}
		o.queued = append(o.queued, rep.Queued.Seconds())
		o.process = append(o.process, rep.Process.Seconds())
	}
	for i, t := range tasks {
		if !seen[i] {
			o.violate("task %d was offered and never reported", i)
			o.missing++
		}
		o.sendLag = append(o.sendLag, t.sent.Sub(t.due).Seconds())
	}

	if got := o.completed() + o.shed + o.failed(); got != o.offered {
		o.violate("outcome classes hold %d tasks, %d were offered", got, o.offered)
	}
	if o.failed() > 0 {
		o.violate("%d task(s) failed: %d abandoned, %d dead-lettered, %d without a usable report",
			o.failed(), o.abandoned, o.deadLetter, o.missing)
	}
	if o.shed > 0 && !wl.MayShed {
		o.violate("%d task(s) shed on a workload that must shed none", o.shed)
	}
	if o.completed() > 0 && o.f1() < wl.F1Floor {
		o.violate("pooled F1 %.3f is below the workload's floor %.2f", o.f1(), wl.F1Floor)
	}
	return o
}

// checkPartition reports how a result fails to partition its dataset's IDs
// into Noisy and Clean, or "" when it does.
func checkPartition(p *platform, rep lake.Report) string {
	d := p.data(rep.TaskID)
	res := rep.Result
	if len(res.Noisy)+len(res.Clean) != len(d) {
		return fmt.Sprintf("noisy %d + clean %d ≠ dataset size %d", len(res.Noisy), len(res.Clean), len(d))
	}
	for _, s := range d {
		if res.Noisy[s.ID] == res.Clean[s.ID] {
			return fmt.Sprintf("sample %d is in both sets or in neither", s.ID)
		}
	}
	return ""
}

func noisyHash(noisy map[int]bool) string {
	ids := make([]int, 0, len(noisy))
	for id, in := range noisy {
		if in {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%d,", id)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// endToEndMetrics computes the untraced run's list from an outcome.
func endToEndMetrics(o *outcome, setupSeconds []float64) metricSet {
	m := metricSet{}
	n := len(o.latency)
	m.set("setup_s", median(setupSeconds), len(setupSeconds))
	m.set("task_p50_s", quantile(o.latency, 0.5), n)
	m.set("tasks_per_s", ratio(float64(o.completed()), o.wall.Seconds()), o.completed())
	m.set("within_limit_frac", ratio(float64(o.within), float64(o.offered)), o.offered)
	m.set("f1", o.f1(), len(o.digest))
	m.set("cpu_s_per_task", ratio(o.cpu, float64(o.completed())), o.completed())
	m.set("alloc_mb_per_task", ratio(o.allocMB, float64(o.completed())), o.completed())
	m.set("retained_heap_mb", o.retainedMB, 0)
	return m
}

// layerInputs is what the traced run's decorators and probes collected.
type layerInputs struct {
	o      *outcome
	rec    *recorder
	tdet   *tracedDetector
	sys    *system // nil for detect-batch
	reg    *obs.Registry
	probes probeResult
	tiers  []tierResult
	read   *readSide // ingest only
	merge  time.Duration
	tasks  []taskRecord
	// phasesBefore is the program's span totals when the replay began (the
	// probes and the tier pass run Detect on the same registry).
	phasesBefore map[string]float64
	// peakRSSMB is VmHWM at the end of the replay.
	peakRSSMB float64
}

// layerMetrics computes the traced run's list and returns warnings about
// numbers it had to leave at 0.
func layerMetrics(in layerInputs) (metricSet, []string) {
	m := metricSet{}
	var warnings []string
	o := in.o
	done := float64(o.completed())
	latencySum := sum(o.latency)

	m.set("workload.offered", float64(o.offered), 0)
	m.set("workload.send_lag_p95_s", quantile(o.sendLag, 0.95), len(o.sendLag))
	m.set("workload.send_lag_max_s", quantile(o.sendLag, 1), len(o.sendLag))
	if quantile(o.sendLag, 0.95) > 0.050 {
		m.set("workload.generator_late", 1, 0)
		warnings = append(warnings, "generator_late: p95 send lag above 50 ms")
	}

	// core and sampling, from the detector and strategy decorators.
	var detectSec, selectSec []float64
	var visits, forwards, updates, knn float64
	var selects, ambiguous, pool, contrastive float64
	for _, c := range in.tdet.calls {
		detectSec = append(detectSec, c.end.Sub(c.start).Seconds())
		visits += float64(c.meter.TrainSampleVisits)
		forwards += float64(c.meter.ForwardPasses)
		updates += float64(c.meter.ParamUpdates)
		knn += float64(c.meter.KNNQueries)
		busy := 0.0
		for _, s := range c.selects {
			busy += s.end.Sub(s.start).Seconds()
			ambiguous += float64(s.ambiguous)
			pool += float64(s.pool)
			contrastive += float64(s.contrastive)
		}
		selects += float64(len(c.selects))
		selectSec = append(selectSec, busy)
	}
	calls := float64(len(detectSec))
	detectBusy := sum(detectSec)
	m.set("core.detect_calls", calls, 0)
	m.set("core.detect_busy_s", detectBusy, len(detectSec))
	m.set("core.detect_p50_s", quantile(detectSec, 0.5), len(detectSec))
	m.set("core.detect_p90_s", quantile(detectSec, 0.9), len(detectSec))
	m.set("core.detect_share", ratio(detectBusy, latencySum), 0)
	m.set("core.train_visits_per_task", ratio(visits, calls), 0)
	m.set("core.forward_passes_per_task", ratio(forwards, calls), 0)
	m.set("core.param_updates_per_task", ratio(updates, calls), 0)
	m.set("core.knn_queries_per_task", ratio(knn, calls), 0)

	m.set("sampling.select_calls_per_task", ratio(selects, calls), 0)
	m.set("sampling.select_busy_s_per_task", ratio(sum(selectSec), calls), len(selectSec))
	m.set("sampling.select_share_of_detect", ratio(sum(selectSec), detectBusy), 0)
	m.set("sampling.ambiguous_mean", ratio(ambiguous, selects), int(selects))
	m.set("sampling.pool_mean", ratio(pool, selects), int(selects))
	m.set("sampling.contrastive_mean", ratio(contrastive, selects), int(selects))

	// The program's own phase spans, scraped from the registry the platform
	// was built with.
	phases, err := spanSeconds(in.reg)
	if err != nil {
		warnings = append(warnings, "the program's span histograms could not be read: "+err.Error())
	}
	spanSum := 0.0
	for _, ph := range []struct{ metric, span string }{
		{"core.span_split_s_per_task", "detect/split"},
		{"core.span_knn_s_per_task", "detect/knn"},
		{"core.span_finetune_s_per_task", "detect/finetune"},
		{"core.span_vote_s_per_task", "detect/vote"},
	} {
		total, ok := phases[ph.span]
		total -= in.phasesBefore[ph.span]
		if !ok {
			if in.tdet.method == "enld" {
				warnings = append(warnings, "span family "+ph.span+" is absent; "+ph.metric+" left at 0")
			}
			continue
		}
		spanSum += total
		m.set(ph.metric, ratio(total, calls), 0)
	}
	m.set("core.detect_explained_frac", ratio(spanSum, detectBusy), 0)

	pr := in.probes
	m.set("nn.train_epoch_s_per_1k", pr.trainPer1k, probeRepeats)
	m.set("nn.predict_s_per_1k", pr.predictPer1k, probeRepeats)
	m.set("nn.clone_us", pr.cloneMicros, probeRepeats)
	m.set("detect.score_s_per_1k", pr.scorePer1k, probeRepeats)
	m.set("kdtree.build_s_per_1k", pr.kdBuildPer1k, probeRepeats)
	m.set("kdtree.query_us", pr.kdQueryMicros, probeRepeats)
	predicted := (visits*pr.trainPer1k+forwards*pr.predictPer1k)/1000 + sum(selectSec)
	m.set("core.detect_predicted_frac", ratio(predicted, detectBusy), 0)

	// lake, from the reports and the span tree.
	m.set("lake.queue_wait_p50_s", quantile(o.queued, 0.5), len(o.queued))
	m.set("lake.queue_wait_p90_s", quantile(o.queued, 0.9), len(o.queued))
	m.set("lake.process_p50_s", quantile(o.process, 0.5), len(o.process))
	m.set("lake.ok", float64(o.ok), 0)
	m.set("lake.shed", float64(o.shed), 0)
	m.set("lake.abandoned", float64(o.abandoned), 0)
	m.set("lake.dead_letter", float64(o.deadLetter), 0)
	m.set("lake.degraded", float64(o.degraded), 0)
	m.set("lake.retries", float64(o.retries), 0)
	m.set("lake.shed_frac", ratio(float64(o.shed), float64(o.offered)), o.offered)
	m.set("lake.failed_frac", ratio(float64(o.failed()), float64(o.offered)), o.offered)
	for i, t := range in.tiers {
		if i >= maxTiers {
			warnings = append(warnings, fmt.Sprintf("ladder has %d rungs, the metric list holds %d", len(in.tiers), maxTiers))
			break
		}
		m.set(fmt.Sprintf("lake.tier%d_detect_p50_s", i), t.p50, t.n)
		m.set(fmt.Sprintf("lake.tier%d_f1", i), t.f1, t.n)
		m.set(fmt.Sprintf("lake.tier%d_speedup", i), ratio(in.tiers[0].p50, t.p50), t.n)
	}

	// Where a completed task's time goes: self time per span name, summed
	// over tasks. The seven fractions sum to 1.
	selfSum := make(map[string]float64)
	spans := 0
	for _, ss := range in.rec.byTask() {
		spans += len(ss)
		self := selfTimes(ss)
		if _, completed := self[spanDetect]; !completed {
			continue
		}
		for name, ns := range self {
			selfSum[name] += float64(ns) / 1e9
		}
	}
	rootSelf, hopSelf := selfSum[spanTask], selfSum[spanHop]
	for _, name := range spanNames {
		m.set("trace.self_"+name+"_frac", ratio(selfSum[name], latencySum), o.completed())
	}
	m.set("lake.overhead_s_per_task", ratio(rootSelf, done), o.completed())
	m.set("trace.task_p50_s", quantile(o.latency, 0.5), len(o.latency))
	m.set("trace.task_p90_s", quantile(o.latency, 0.9), len(o.latency))
	m.set("trace.spans", float64(spans), 0)
	m.set("proc.peak_rss_mb", in.peakRSSMB, 0)

	if in.sys != nil {
		seglogMetrics(m, in, latencySum)
		if in.sys.coord != nil {
			clusterMetrics(m, in, hopSelf, done)
		}
	}
	return m, warnings
}

func seglogMetrics(m metricSet, in layerInputs, latencySum float64) {
	var appends []float64
	segments := 0
	var live, dead int64
	for i, inv := range in.sys.invs {
		appends = append(appends, inv.appends...)
		st := in.sys.logs[i].Stats()
		if in.read != nil {
			st = in.read.stats // the ingest log is closed by now
		}
		segments += st.Segments
		live += st.LiveBytes
		dead += st.DeadBytes
	}
	m.set("seglog.append_calls", float64(len(appends)), 0)
	m.set("seglog.append_busy_s", sum(appends), len(appends))
	m.set("seglog.append_p50_s", quantile(appends, 0.5), len(appends))
	m.set("seglog.append_p90_s", quantile(appends, 0.9), len(appends))
	m.set("seglog.append_share", ratio(sum(appends), latencySum), 0)
	m.set("seglog.append_wall_frac", ratio(sum(appends), in.o.wall.Seconds()), 0)
	m.set("seglog.segments", float64(segments), 0)
	if rs := in.read; rs != nil {
		m.set("seglog.bytes_per_user_byte", ratio(float64(live+dead), float64(rs.userBytes)), 0)
		m.set("seglog.remove_busy_s", rs.removeBusy.Seconds(), rs.removed)
		m.set("seglog.compact_s", rs.compact.Seconds(), 1)
		m.set("seglog.open_s", rs.open.Seconds(), 1)
		m.set("seglog.load_s_per_1k", ratio(rs.load.Seconds()*1000, float64(rs.recovered)), rs.recovered)
		m.set("seglog.recover_s", (rs.open + rs.load).Seconds(), 1)
		m.set("seglog.recovered_datasets", float64(rs.recovered), 0)
	}
}

func clusterMetrics(m metricSet, in layerInputs, hopSelf, done float64) {
	var submit []float64
	var coord float64
	perShard := make([]float64, len(in.sys.shards))
	for i, sh := range in.sys.shards {
		for _, c := range sh.submits {
			submit = append(submit, c.end.Sub(c.start).Seconds())
			coord += c.start.Sub(in.tasks[c.task].accepted).Seconds()
			perShard[i]++
		}
	}
	m.set("cluster.submit_calls", float64(len(submit)), 0)
	m.set("cluster.submit_p50_s", quantile(submit, 0.5), len(submit))
	m.set("cluster.submit_p90_s", quantile(submit, 0.9), len(submit))
	m.set("cluster.hop_s_per_task", ratio(hopSelf, done), int(done))
	m.set("cluster.coord_overhead_s_per_task", ratio(coord, float64(len(submit))), len(submit))
	m.set("cluster.rerouted", float64(in.o.rerouted), 0)
	m.set("cluster.placement_imbalance", ratio(quantile(perShard, 1), sum(perShard)/float64(len(perShard))), 0)
	m.set("cluster.merge_metrics_s", in.merge.Seconds(), 1)
}

// spanSeconds returns the total seconds the program recorded under each of
// its own span names, read the way a scraper would: render, then parse.
func spanSeconds(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	parsed, err := obs.ParseText(&buf)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	if f := parsed[obs.SpanFamily]; f != nil {
		for _, s := range f.Series {
			out[s.Labels["span"]] = s.Sum
		}
	}
	return out, nil
}

// addTaskSpans records the spans only the generator's records and the
// reports can supply — the root, send and queue — after the replay.
func addTaskSpans(rec *recorder, sys *system, parent string, tasks []taskRecord, reports []lake.Report) {
	// taken is when the system demonstrably had the task: its append (or, in
	// a cluster, its first Submit) began. The generator stamps "accepted"
	// only once it runs again after the hand-off, which on a busy machine is
	// later, and the send span must not claim that time.
	taken := make(map[int]time.Time)
	admitted := make(map[int]time.Time)
	if sys != nil {
		for _, inv := range sys.invs {
			for task, at := range inv.began {
				taken[task] = at
			}
			for task, at := range inv.ended {
				admitted[task] = at
			}
		}
		for _, sh := range sys.shards {
			for _, c := range sh.submits {
				if at, ok := taken[c.task]; !ok || c.start.Before(at) {
					taken[c.task] = c.start
				}
			}
		}
	}
	for i, t := range tasks {
		if t.filed.IsZero() {
			continue
		}
		sendEnd := t.accepted
		if at, ok := taken[i]; ok && at.Before(sendEnd) {
			sendEnd = at
		}
		rec.add(i, spanTask, "", t.due, t.filed)
		rec.add(i, spanSend, spanTask, t.due, sendEnd)
	}
	for _, rep := range reports {
		// The service stamps a task's arrival right after its append
		// returns; Report.Queued runs from there.
		if at, ok := admitted[rep.TaskID]; ok && rep.Result != nil {
			rec.add(rep.TaskID, spanQueue, parent, at, at.Add(rep.Queued))
		}
	}
}
