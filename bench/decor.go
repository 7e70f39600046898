package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"enld/internal/baselines"
	"enld/internal/core"
	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/lake"
	"enld/internal/lake/cluster"
	"enld/internal/sampling"
)

// The decorators below time each layer from outside, at the seams the
// program already has: detect.Detector, sampling.Strategy (through
// core.Config.Strategy), lake.Inventory and cluster.Shard. Only the traced
// run installs them; the untraced run hands the program its own types.

// newDetector builds the workload's detector on the workbench. strategy is
// nil on the untraced path, which leaves core.Config.Strategy at its default.
func newDetector(method string, wb *experiments.Workbench, strategy sampling.Strategy) (detect.Detector, error) {
	switch method {
	case "enld":
		cfg := wb.ENLDCfg
		cfg.Strategy = strategy
		return &core.ENLD{Platform: wb.Platform, Config: cfg}, nil
	case "default":
		return baselines.Default{Model: wb.Platform.Model}, nil
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

// detectCall is what the traced detector learned about one Detect call.
type detectCall struct {
	task       int
	start, end time.Time
	meter      cost.Meter
	selects    []selectCall
}

type selectCall struct {
	start, end                   time.Time
	ambiguous, pool, contrastive int
}

// tracedDetector times every Detect call and attributes it to a task. The
// service hands a detector only the dataset, so the task is recovered from
// the dataset's identity: tracedInventory saw the same slice, with the task
// ID in the record name, a moment earlier (every request owns its slice —
// the generator copies the catalog entry, the HTTP shard decodes a fresh
// one).
type tracedDetector struct {
	method string
	wb     *experiments.Workbench
	rec    *recorder
	// parent is the span that detect and append spans hang off: spanTask
	// for a single service and direct calls, spanHop behind a cluster shard.
	parent string

	mu     sync.Mutex
	owner  map[*dataset.Sample]int // first sample of a request's slice → task
	calls  []*detectCall
	orphan int // Detect calls no task could be found for
}

func newTracedDetector(method string, wb *experiments.Workbench, rec *recorder, parent string) *tracedDetector {
	return &tracedDetector{method: method, wb: wb, rec: rec, parent: parent, owner: make(map[*dataset.Sample]int)}
}

func (t *tracedDetector) Name() string { return t.method }

// claim records that the slice d belongs to task.
func (t *tracedDetector) claim(d dataset.Set, task int) {
	if len(d) == 0 {
		return
	}
	t.mu.Lock()
	t.owner[&d[0]] = task
	t.mu.Unlock()
}

// Detect implements detect.Detector.
func (t *tracedDetector) Detect(d dataset.Set) (*detect.Result, error) {
	task := -1
	if len(d) > 0 {
		t.mu.Lock()
		if id, ok := t.owner[&d[0]]; ok {
			task = id
			delete(t.owner, &d[0])
		} else {
			t.orphan++
		}
		t.mu.Unlock()
	}
	return t.detectTask(task, d)
}

// detectTask runs one Detect for a known task. Each call gets its own
// strategy decorator, so Select calls are attributed to the Detect that made
// them without any shared state; core.ENLD holds nothing but the platform
// pointer and its config, so building one per call costs nothing.
func (t *tracedDetector) detectTask(task int, d dataset.Set) (*detect.Result, error) {
	call := &detectCall{task: task}
	det, err := newDetector(t.method, t.wb, &tracedStrategy{inner: sampling.Contrastive{}, call: call})
	if err != nil {
		return nil, err
	}
	call.start = time.Now()
	res, err := det.Detect(d)
	call.end = time.Now()
	if res != nil {
		call.meter = res.Meter
	}
	t.rec.add(task, spanDetect, t.parent, call.start, call.end)
	for _, s := range call.selects {
		t.rec.add(task, spanSelect, spanDetect, s.start, s.end)
	}
	t.mu.Lock()
	t.calls = append(t.calls, call)
	t.mu.Unlock()
	return res, err
}

// tracedStrategy times the Select calls of one Detect. It is used from that
// Detect's goroutine only.
type tracedStrategy struct {
	inner sampling.Strategy
	call  *detectCall
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Select(r *sampling.Request) (dataset.Set, error) {
	start := time.Now()
	out, err := s.inner.Select(r)
	s.call.selects = append(s.call.selects, selectCall{
		start: start, end: time.Now(),
		ambiguous: len(r.Ambiguous), pool: len(r.Pool), contrastive: len(out),
	})
	return out, err
}

// tracedInventory times AppendDataset and tells the detector decorator which
// task each appended slice belongs to. Every other call passes through.
type tracedInventory struct {
	lake.Inventory
	rec *recorder
	det *tracedDetector

	mu      sync.Mutex
	appends []float64         // seconds per AppendDataset call
	began   map[int]time.Time // task → when its append was called (the system has the task by then)
	ended   map[int]time.Time // task → when its append returned (queue span start)
}

func newTracedInventory(inner lake.Inventory, rec *recorder, det *tracedDetector) *tracedInventory {
	return &tracedInventory{Inventory: inner, rec: rec, det: det,
		began: make(map[int]time.Time), ended: make(map[int]time.Time)}
}

func (t *tracedInventory) AppendDataset(name string, set dataset.Set) (uint64, error) {
	task, ok := taskOfRecord(name)
	start := time.Now()
	id, err := t.Inventory.AppendDataset(name, set)
	end := time.Now()
	t.mu.Lock()
	t.appends = append(t.appends, end.Sub(start).Seconds())
	if ok {
		t.began[task], t.ended[task] = start, end
	}
	t.mu.Unlock()
	if ok {
		// An append under any other name leaves its Detect call unclaimed,
		// which the run reports.
		t.rec.add(task, spanAppend, t.det.parent, start, end)
		t.det.claim(set, task)
	}
	return id, err
}

// taskOfRecord parses the task ID out of the inventory record name the
// service gives an arrival ("task-<id>").
func taskOfRecord(name string) (int, bool) {
	var id int
	if n, err := fmt.Sscanf(name, "task-%d", &id); n != 1 || err != nil {
		return 0, false
	}
	return id, true
}

// stampShard wraps a cluster.Shard. On both runs it stamps when each task's
// Submit returned — the coordinator files the report right after, and offers
// no hook of its own — and on the traced run it records the hop span.
type stampShard struct {
	cluster.Shard
	rec   *recorder
	tasks []taskRecord // shared with the generator; one slot per task ID

	mu      sync.Mutex
	submits []submitCall // traced run only
}

type submitCall struct {
	task       int
	start, end time.Time
}

func (s *stampShard) Submit(ctx context.Context, req lake.Request) (lake.Report, error) {
	start := time.Now()
	rep, err := s.Shard.Submit(ctx, req)
	end := time.Now()
	// A task is in one Submit at a time (a reroute follows a failed one),
	// so its slot has one writer.
	s.tasks[req.TaskID].filed = end
	if s.rec != nil {
		s.rec.add(req.TaskID, spanHop, spanTask, start, end)
		s.mu.Lock()
		s.submits = append(s.submits, submitCall{task: req.TaskID, start: start, end: end})
		s.mu.Unlock()
	}
	return rep, err
}
