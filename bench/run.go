package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/lake"
	"enld/internal/lake/cluster"
	"enld/internal/lake/seglog"
	"enld/internal/mat"
	"enld/internal/metrics"
	"enld/internal/obs"
	"enld/internal/workload"
)

// options selects one run of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// outDir receives the run's result file, its trace file and, while the
	// run lasts, its seglog directories.
	outDir string
	// setups is how many times the run sets up at least; setup_s is the
	// median. 1 means exactly once (tests).
	setups int
}

// A measured run sets up setupRepeats times, and where set-up is cheap keeps
// going until the set-ups add up to setupBudgetSeconds or there are
// maxSetups of them: the half-second emnist set-up needs more repeats than
// the two-second cifar100 one to give as steady a median.
const (
	setupRepeats       = 3
	maxSetups          = 9
	setupBudgetSeconds = 3.0
)

// taskRecord is the generator's exact record of one task.
type taskRecord struct {
	entry int
	// due is when the schedule wanted the task sent (open loop) or when the
	// submitter began offering it (closed loop); sent is when the generator
	// got to it; accepted is when the system took it; filed is when its
	// report was filed. Latency is filed − due.
	due, sent, accepted, filed time.Time
}

// platform is everything a workload's inputs consist of.
type platform struct {
	wb      *experiments.Workbench
	trace   *workload.Trace // serve and ingest
	catalog []dataset.Set   // serve and ingest: one dataset per trace catalog entry
	// events is the task schedule: trace.Events, or for detect-batch one
	// unscheduled event per task whose Entry indexes wb.Shards.
	events []workload.Event
}

// data returns the dataset task i carries.
func (p *platform) data(i int) dataset.Set {
	if p.catalog == nil {
		return p.wb.Shards[p.events[i].Entry]
	}
	return p.catalog[p.events[i].Entry]
}

// buildPlatform generates the datasets, trains the platform and materialises
// the catalog. reg is nil on the untraced run.
func buildPlatform(wl *Workload, o options, reg *obs.Registry) (*platform, error) {
	scale := wl.Scale
	if scale == 0 {
		scale = 1
	}
	wb, err := experiments.BuildWorkbench(wl.Preset, wl.Eta, experiments.Config{
		Seed: wl.Seed, DataScale: scale, Workers: wl.TaskWorkers, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	p := &platform{wb: wb}
	if wl.Kind == kindDetectBatch {
		// The shards are the platform's own (fixed by the file's seed); the
		// run's seed picks the order they are visited in.
		order := mat.NewRNG(o.seed ^ traceSalt).Perm(len(wb.Shards))
		p.events = make([]workload.Event, wl.tasks(o.seconds))
		for i := range p.events {
			p.events[i] = workload.Event{Task: i, Entry: order[i%len(order)], Phase: wl.Phases[0].Name}
		}
		return p, nil
	}
	p.trace = genTrace(wl, o.seed, o.seconds)
	// The catalog draws from a fresh clean pool, as loadgen does; per-entry
	// noise comes from the mix, not from the platform's inventory noise.
	pool, err := wb.Spec.Generate()
	if err != nil {
		return nil, err
	}
	if p.catalog, err = workload.Materialize(p.trace, pool, wb.Spec.Classes); err != nil {
		return nil, err
	}
	p.events = p.trace.Events
	return p, nil
}

// system is the serving stack under test: one lake.Service, or a coordinator
// over HTTP loopback shards, each with its own seglog directory.
type system struct {
	sub  workload.Submitter
	dir  string
	logs []*seglog.Log
	invs []*tracedInventory // traced run only, parallel to logs

	coord   *cluster.Coordinator
	shards  []*stampShard
	workers []*cluster.ShardWorker
	servers []*httptest.Server
}

// openSystem wires the workload's serving stack. tasks is where completion
// times are stamped; rec and tdet are nil on the untraced run.
func openSystem(wl *Workload, det detect.Detector, tasks []taskRecord, rec *recorder, tdet *tracedDetector, dir string) (sys *system, err error) {
	sys = &system{dir: dir}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	openInventory := func(name string) (lake.Inventory, error) {
		// fsync on every append: the zero Options are the production ones.
		lg, err := seglog.Open(filepath.Join(dir, name), seglog.Options{})
		if err != nil {
			return nil, err
		}
		sys.logs = append(sys.logs, lg)
		if tdet == nil {
			return lg, nil
		}
		inv := newTracedInventory(lg, rec, tdet)
		sys.invs = append(sys.invs, inv)
		return inv, nil
	}
	policy := lake.Policy{Admission: wl.Policy.Admission()}

	if wl.ClusterShards == 0 {
		svc, err := lake.NewServiceWithPolicy(det, wl.Workers, policy)
		if err != nil {
			return sys, err
		}
		inv, err := openInventory("seglog")
		if err != nil {
			return sys, err
		}
		svc.SetInventory(inv)
		svc.OnReport = func(rep lake.Report) { tasks[rep.TaskID].filed = time.Now() }
		sys.sub = svc
		return sys, nil
	}

	shards := make([]cluster.Shard, wl.ClusterShards)
	for i := range shards {
		name := fmt.Sprintf("shard-%d", i)
		inv, err := openInventory(name)
		if err != nil {
			return sys, err
		}
		w, err := cluster.NewShardWorker(det, cluster.WorkerConfig{
			Name: name, Workers: wl.Workers, Policy: policy, Inventory: inv,
		})
		if err != nil {
			return sys, err
		}
		sys.workers = append(sys.workers, w)
		srv := httptest.NewServer(w.Handler())
		sys.servers = append(sys.servers, srv)
		st := &stampShard{Shard: cluster.NewHTTPShard(name, srv.URL), rec: rec, tasks: tasks}
		sys.shards = append(sys.shards, st)
		shards[i] = st
	}
	if sys.coord, err = cluster.New(shards, cluster.Options{}); err != nil {
		return sys, err
	}
	sys.sub = sys.coord
	return sys, nil
}

// close stops the shards, closes the logs and removes the storage directory.
// It returns the first error.
func (s *system) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, w := range s.workers {
		keep(w.Drain(ctx))
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, lg := range s.logs {
		keep(lg.Close()) // a second Close is a no-op
	}
	keep(os.RemoveAll(s.dir))
	return first
}

// replay sends the platform's events into sub and returns the reports and
// the wall time from the first task's due time to the last report. An open
// loop sleeps until each event's offset and never waits for the system
// beyond the hand-off; a closed loop offers the next task as soon as the
// previous one is taken, so the system's backpressure paces it. Every
// request owns a copy of its dataset slice (the samples' feature vectors are
// shared): the traced run tells tasks apart by slice identity, and the
// untraced run does the same copy so that the two differ only in tracing.
func replay(ctx context.Context, sub workload.Submitter, p *platform, open bool, tasks []taskRecord) ([]lake.Report, time.Duration) {
	requests := make(chan lake.Request)
	done := make(chan []lake.Report, 1)
	go func() { done <- sub.Run(ctx, requests) }()

	start := time.Now()
	for i, e := range p.events {
		t := &tasks[i]
		t.entry = e.Entry
		if open {
			t.due = start.Add(e.At)
			time.Sleep(time.Until(t.due))
			t.sent = time.Now()
		} else {
			t.sent = time.Now()
			t.due = t.sent
		}
		requests <- lake.Request{TaskID: e.Task, Data: append(dataset.Set(nil), p.data(i)...)}
		t.accepted = time.Now()
	}
	close(requests)
	reports := <-done
	return reports, time.Since(start)
}

// detectBatch is the closed loop of the paper's protocol: one caller, one
// Detect at a time, no service and no storage. It returns reports shaped
// like the service's so the same reduction and checks apply.
func detectBatch(det detect.Detector, tdet *tracedDetector, p *platform, tasks []taskRecord) ([]lake.Report, time.Duration, error) {
	reports := make([]lake.Report, len(p.events))
	start := time.Now()
	for i, e := range p.events {
		t := &tasks[i]
		d := p.data(i)
		t.entry = e.Entry
		t.due = time.Now()
		t.sent, t.accepted = t.due, t.due
		var res *detect.Result
		var err error
		if tdet != nil {
			res, err = tdet.detectTask(i, d)
		} else {
			res, err = det.Detect(d)
		}
		t.filed = time.Now()
		if err != nil {
			return nil, 0, fmt.Errorf("detect task %d: %w", i, err)
		}
		reports[i] = lake.Report{TaskID: i, Size: len(d), Result: res, Process: res.Process}
		// Scoring stays outside the timed call, as in the service.
		reports[i].Detection = metrics.EvaluateDetection(d, res.Noisy)
	}
	return reports, time.Since(start), nil
}

// stack is one set-up: the platform, the detector and the serving system.
type stack struct {
	p     *platform
	det   detect.Detector
	tdet  *tracedDetector // traced run only
	sys   *system         // nil for detect-batch
	tasks []taskRecord
}

// setUp builds one stack and reports how long that took: dataset generation,
// BuildWorkbench (general-model training, probability estimation), catalog
// materialisation and opening the inventories and shards.
func setUp(wl *Workload, o options, rec *recorder, reg *obs.Registry, dir string) (*stack, time.Duration, error) {
	t0 := time.Now()
	p, err := buildPlatform(wl, o, reg)
	if err != nil {
		return nil, 0, err
	}
	s := &stack{p: p, tasks: make([]taskRecord, len(p.events))}
	if o.traced {
		parent := spanTask
		if wl.ClusterShards > 0 {
			parent = spanHop
		}
		s.tdet = newTracedDetector(wl.Method, p.wb, rec, parent)
		s.det = s.tdet
	} else if s.det, err = newDetector(wl.Method, p.wb, nil); err != nil {
		return nil, 0, err
	}
	if wl.Kind != kindDetectBatch {
		if s.sys, err = openSystem(wl, s.det, s.tasks, rec, s.tdet, dir); err != nil {
			return nil, 0, err
		}
	}
	return s, time.Since(t0), nil
}

// runWorkload is one run: set up, probe (traced), replay, reduce, check, and
// set up again — at least o.setups times in all — for a steadier setup_s.
func runWorkload(o options) (*result, error) {
	wl, err := loadWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	var reg *obs.Registry
	if o.traced {
		rec, reg = newRecorder(), obs.NewRegistry()
	}
	dir := filepath.Join(o.outDir, fmt.Sprintf("%s.store.%d", o.workload, os.Getpid()))

	s, elapsed, err := setUp(wl, o, rec, reg, dir)
	if err != nil {
		return nil, err
	}
	setupSeconds := []float64{elapsed.Seconds()}
	sys := s.sys
	defer func() {
		if sys != nil {
			sys.close() // error path only; the success path closes below
		}
	}()

	in := layerInputs{rec: rec, tdet: s.tdet, sys: s.sys, reg: reg, tasks: s.tasks}

	if o.traced {
		if in.probes, err = runProbes(s.p.wb); err != nil {
			return nil, err
		}
		if wl.MeasureTiers {
			if in.tiers, err = measureTiers(s.p, o.seconds); err != nil {
				return nil, err
			}
		}
	}

	if o.traced {
		if in.phasesBefore, err = spanSeconds(reg); err != nil {
			return nil, err
		}
	}

	// Set-up garbage is collected now, not during the replay.
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	var reports []lake.Report
	var wall time.Duration
	if wl.Kind == kindDetectBatch {
		reports, wall, err = detectBatch(s.det, s.tdet, s.p, s.tasks)
		if err != nil {
			return nil, err
		}
	} else {
		// A run that takes ten times its length and half a minute has hung;
		// cancelling turns what is left into abandoned tasks.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second+time.Duration(10*o.seconds*float64(time.Second)))
		reports, wall = replay(ctx, s.sys.sub, s.p, wl.Loop == "open", s.tasks)
		cancel()
	}
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	out := reduce(wl, s.p, s.tasks, reports, wall)
	out.cpu = cpu1 - cpu0
	out.allocMB = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// What the system still holds once the replay's garbage is gone: the
	// platform, the catalog and the inventory's in-memory index.
	runtime.GC()
	runtime.ReadMemStats(&mem1)
	out.retainedMB = float64(mem1.HeapAlloc) / (1 << 20)

	if o.traced && s.sys != nil && s.sys.coord != nil {
		// One scatter/gather of the shards' metrics: the cluster layer's
		// read path.
		t0 := time.Now()
		if err := s.sys.coord.WriteMetrics(context.Background(), io.Discard); err != nil {
			return nil, fmt.Errorf("merged metrics: %w", err)
		}
		in.merge = time.Since(t0)
	}
	if wl.Kind == kindIngest {
		if in.read, err = ingestReadSide(s.sys, s.p, reports); err != nil {
			return nil, err
		}
		out.violations = append(out.violations, in.read.violations...)
	}

	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Attempted: out.offered, Failed: out.failed(),
		Digest: make(map[string]string, len(out.digest)),
	}
	for entry, h := range out.digest {
		res.Digest[strconv.Itoa(entry)] = h
	}
	res.TailPercentile, _ = highestPercentile(len(out.latency))
	res.TailSeconds = quantile(out.latency, res.TailPercentile)

	var layers metricSet
	if o.traced {
		addTaskSpans(rec, s.sys, s.tdet.parent, s.tasks, reports)
		in.o, in.peakRSSMB = out, rss
		layers, res.Warnings = layerMetrics(in)
		if s.tdet.orphan > 0 {
			out.violate("%d Detect call(s) could not be attributed to a task", s.tdet.orphan)
		}
		if err := rec.writeJSONL(filepath.Join(o.outDir, o.workload+".trace.jsonl")); err != nil {
			return nil, err
		}
	}
	if o.traced && !supported(len(out.latency), 0.9) {
		res.Warnings = append(res.Warnings, fmt.Sprintf("trace.task_p90_s rests on %d samples, fewer than %d lie beyond it", len(out.latency), tailSamples))
	}

	if sys != nil {
		err := sys.close()
		sys = nil
		if err != nil {
			return nil, err
		}
	}
	// The first stack is garbage before the next one is built, so the extra
	// set-ups run in the memory the first one had.
	s, in = nil, layerInputs{}
	if setupSeconds, err = repeatSetUp(wl, o, dir, setupSeconds); err != nil {
		return nil, err
	}

	if o.traced {
		res.Metrics, err = layers.finish(perLayer)
	} else {
		res.Metrics, err = endToEndMetrics(out, setupSeconds).finish(endToEnd)
	}
	if err != nil {
		return nil, err
	}
	res.Violations = out.violations
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// repeatSetUp sets up again, and tears down, until there are o.setups timings
// and — on a measured run — until the cheap set-ups have used their budget.
func repeatSetUp(wl *Workload, o options, dir string, seconds []float64) ([]float64, error) {
	for len(seconds) < o.setups ||
		(o.setups > 1 && len(seconds) < maxSetups && sum(seconds) < setupBudgetSeconds) {
		runtime.GC()
		var rec *recorder
		var reg *obs.Registry
		if o.traced {
			rec, reg = newRecorder(), obs.NewRegistry()
		}
		s, elapsed, err := setUp(wl, o, rec, reg, dir)
		if err != nil {
			return nil, err
		}
		seconds = append(seconds, elapsed.Seconds())
		if s.sys != nil {
			if err := s.sys.close(); err != nil {
				return nil, err
			}
		}
	}
	return seconds, nil
}
