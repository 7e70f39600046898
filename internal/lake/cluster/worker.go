package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"enld/internal/detect"
	"enld/internal/lake"
	"enld/internal/obs"
)

// WorkerConfig wires one in-process shard. Every shard owns its full
// vertical slice: its own lake.Service (admission queue, brownout ladder,
// breaker), its own obs.Registry, its own StatusTracker, and —
// when an Inventory is attached — its own durable segment-log directory.
type WorkerConfig struct {
	// Name is the shard's placement identity (required, unique per cluster).
	Name string
	// Workers is the shard-local worker-pool size (default 1).
	Workers int
	// Policy configures the shard-local resilience and admission behavior.
	Policy lake.Policy
	// Registry receives the shard's metrics; one is created when nil. Each
	// shard must have its OWN registry — families are merged, not shared,
	// across shards (see obs.MergeExpositions).
	Registry *obs.Registry
	// Inventory, when set, persists arrivals shard-locally (callers open
	// one seglog directory per shard).
	Inventory lake.Inventory
	// Ladder, when given, enables shard-local brownout degradation: the
	// shard's admission picks each task's rung (needs Policy.Admission
	// with a queue depth and a max queue wait).
	Ladder []lake.TierDetector
	// KeepRecent bounds the tracker's recent-report list (default 20).
	KeepRecent int
}

// ShardWorker is the in-process Shard: a lake.Service pinned to a
// long-lived intake channel, with synchronous Submit implemented by
// matching the service's OnReport stream back to waiting submitters.
type ShardWorker struct {
	name    string
	svc     *lake.Service
	reg     *obs.Registry
	tracker *lake.StatusTracker

	intake chan lake.Request
	cancel context.CancelFunc
	// done closes once the service's Run has returned; after that every
	// accepted task has been filed and Submit fails fast.
	done chan struct{}

	mu       sync.Mutex
	stopped  bool
	inflight sync.WaitGroup
	waiters  map[int]chan lake.Report
}

// NewShardWorker builds and starts one in-process shard. The detector must
// be safe for concurrent Detect (the in-tree detectors are); distinct
// shards may share one detector instance.
func NewShardWorker(det detect.Detector, cfg WorkerConfig) (*ShardWorker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: shard worker needs a name")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	svc, err := lake.NewServiceWithPolicy(det, workers, cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", cfg.Name, err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if len(cfg.Ladder) > 0 {
		if err := svc.SetBrownout(cfg.Ladder); err != nil {
			return nil, fmt.Errorf("cluster: shard %s: %w", cfg.Name, err)
		}
	}
	svc.SetObs(reg)
	if svc.Breaker() != nil {
		lake.ObserveBreaker(svc.Breaker(), reg)
	}
	if cfg.Inventory != nil {
		svc.SetInventory(cfg.Inventory)
	}

	tracker := lake.NewStatusTracker(nil)
	tracker.SetKeepRecent(cfg.KeepRecent)
	tracker.AttachService(svc)
	if svc.Breaker() != nil {
		tracker.AttachBreaker(svc.Breaker())
	}
	if cfg.Inventory != nil {
		tracker.AttachInventory(cfg.Inventory)
	}

	w := &ShardWorker{
		name:    cfg.Name,
		svc:     svc,
		reg:     reg,
		tracker: tracker,
		intake:  make(chan lake.Request),
		done:    make(chan struct{}),
		waiters: map[int]chan lake.Report{},
	}
	svc.OnReport = func(rep lake.Report) {
		rep.Shard = w.name
		tracker.Record(rep)
		w.resolve(rep)
	}

	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	go func() {
		defer close(w.done)
		svc.Run(ctx, w.intake)
	}()
	return w, nil
}

// Name implements Shard.
func (w *ShardWorker) Name() string { return w.name }

// Registry exposes the shard's own metrics registry (scatter/gather input).
func (w *ShardWorker) Registry() *obs.Registry { return w.reg }

// resolve hands a filed report to the submitter waiting on its task ID.
// Reports without a waiter (caller gave up on its context) are dropped
// here but remain in the tracker and metrics.
func (w *ShardWorker) resolve(rep lake.Report) {
	w.mu.Lock()
	ch := w.waiters[rep.TaskID]
	delete(w.waiters, rep.TaskID)
	w.mu.Unlock()
	if ch != nil {
		ch <- rep
	}
}

// Submit implements Shard: it hands the request to the shard-local service
// and blocks until that task's report is filed. The intake hand-off is
// unbuffered, so a successful send guarantees exactly one report — the
// zero-lost-task accounting identity extends across the cluster hop.
func (w *ShardWorker) Submit(ctx context.Context, req lake.Request) (lake.Report, error) {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return lake.Report{}, fmt.Errorf("cluster: shard %s: %w", w.name, ErrShardDown)
	}
	if _, dup := w.waiters[req.TaskID]; dup {
		w.mu.Unlock()
		return lake.Report{}, fmt.Errorf("cluster: shard %s: task %d already in flight", w.name, req.TaskID)
	}
	ch := make(chan lake.Report, 1)
	w.waiters[req.TaskID] = ch
	w.inflight.Add(1)
	w.mu.Unlock()
	defer w.inflight.Done()

	select {
	case w.intake <- req:
	case <-w.done:
		w.unregister(req.TaskID)
		return lake.Report{}, fmt.Errorf("cluster: shard %s: %w", w.name, ErrShardDown)
	case <-ctx.Done():
		w.unregister(req.TaskID)
		return lake.Report{}, ctx.Err()
	}

	select {
	case rep := <-ch:
		return rep, nil
	case <-w.done:
		// Run returned, so every accepted task has been filed — the report
		// either raced ahead of the close or will never come.
		select {
		case rep := <-ch:
			return rep, nil
		default:
			w.unregister(req.TaskID)
			return lake.Report{}, fmt.Errorf("cluster: shard %s: %w", w.name, ErrShardDown)
		}
	case <-ctx.Done():
		// The shard still owns the task and will file it into its own
		// accounting; this caller just stops waiting.
		w.unregister(req.TaskID)
		return lake.Report{}, ctx.Err()
	}
}

func (w *ShardWorker) unregister(taskID int) {
	w.mu.Lock()
	delete(w.waiters, taskID)
	w.mu.Unlock()
}

// Status implements Shard.
func (w *ShardWorker) Status(context.Context) (lake.Status, error) {
	return w.tracker.Snapshot(), nil
}

// Metrics implements Shard.
func (w *ShardWorker) Metrics(context.Context) ([]byte, error) {
	var buf bytes.Buffer
	if err := w.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// stop flips the shard to refusing new submissions and waits until every
// in-flight Submit has completed its intake hand-off.
func (w *ShardWorker) stop() {
	w.mu.Lock()
	already := w.stopped
	w.stopped = true
	w.mu.Unlock()
	if already {
		return
	}
	// In-flight submitters either hand off to the still-running feeder or
	// bail on done/ctx; both terminate, so this wait is bounded.
	w.inflight.Wait()
	close(w.intake)
}

// Drain implements Shard: graceful shutdown. Queued and in-flight tasks
// finish and file their reports; new submissions fail with ErrShardDown.
func (w *ShardWorker) Drain(ctx context.Context) error {
	w.stop()
	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill simulates a crash: the service context is cancelled, so queued
// tasks drain as abandoned reports (never silently dropped) and waiting
// submitters see those reports or ErrShardDown — exactly the signal the
// coordinator reroutes on. The kill-one-shard CI run drives this path.
func (w *ShardWorker) Kill() {
	w.cancel()
	w.stop()
	<-w.done
}
