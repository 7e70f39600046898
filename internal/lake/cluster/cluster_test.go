package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/lake"
	"enld/internal/obs"
)

// stubDetector is a fast deterministic detector: a sample is noisy when its
// observed label disagrees with the true one.
type stubDetector struct{ delay time.Duration }

func (d stubDetector) Name() string { return "stub" }

func (d stubDetector) Detect(set dataset.Set) (*detect.Result, error) {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	res := &detect.Result{Noisy: map[int]bool{}, Clean: map[int]bool{}}
	for _, s := range set {
		if s.Observed != s.True {
			res.Noisy[s.ID] = true
		} else {
			res.Clean[s.ID] = true
		}
	}
	return res, nil
}

func testSet(task int) dataset.Set {
	set := make(dataset.Set, 8)
	for i := range set {
		label := i % 2
		observed := label
		if i == 0 {
			observed = 1 - label
		}
		set[i] = dataset.Sample{ID: task*100 + i, X: []float64{float64(i), float64(task)}, Observed: observed, True: label}
	}
	return set
}

func newTestCluster(t *testing.T, n int, delay time.Duration, opts Options) (*Coordinator, []*ShardWorker, *obs.Registry) {
	t.Helper()
	workers := make([]*ShardWorker, n)
	shards := make([]Shard, n)
	for i := range workers {
		w, err := NewShardWorker(stubDetector{delay: delay}, WorkerConfig{
			Name:    fmt.Sprintf("shard-%d", i),
			Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		shards[i] = w
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, w := range workers {
			_ = w.Drain(ctx)
		}
	})
	coord, err := New(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.SetObs(reg)
	return coord, workers, reg
}

func runTasks(t *testing.T, coord *Coordinator, n int) []lake.Report {
	t.Helper()
	requests := make(chan lake.Request)
	go func() {
		defer close(requests)
		for task := 0; task < n; task++ {
			requests <- lake.Request{TaskID: task, Data: testSet(task)}
		}
	}()
	return coord.Run(context.Background(), requests)
}

func TestClusterEndToEnd(t *testing.T) {
	coord, _, _ := newTestCluster(t, 4, 0, Options{})
	const tasks = 40
	reports := runTasks(t, coord, tasks)
	if len(reports) != tasks {
		t.Fatalf("got %d reports for %d tasks", len(reports), tasks)
	}
	for i, rep := range reports {
		if rep.TaskID != i {
			t.Fatalf("reports not sorted: index %d holds task %d", i, rep.TaskID)
		}
		if rep.Err != nil {
			t.Fatalf("task %d failed: %v", rep.TaskID, rep.Err)
		}
		if rep.Rerouted {
			t.Fatalf("task %d rerouted in a healthy cluster", rep.TaskID)
		}
		if want := coord.Place(rep.TaskID); rep.Shard != want {
			t.Fatalf("task %d served by %s, rendezvous owner is %s", rep.TaskID, rep.Shard, want)
		}
		if rep.Result == nil || len(rep.Result.Noisy) != 1 {
			t.Fatalf("task %d: unexpected result %+v", rep.TaskID, rep.Result)
		}
		if rep.Detection.F1 != 1 {
			t.Fatalf("task %d: F1 = %v", rep.TaskID, rep.Detection.F1)
		}
	}
	st := coord.Status(context.Background())
	if st.Shards != 4 || st.ShardsUp != 4 {
		t.Fatalf("status shards=%d up=%d, want 4/4", st.Shards, st.ShardsUp)
	}
	if st.Aggregate.TasksProcessed != tasks {
		t.Fatalf("aggregate processed %d, want %d", st.Aggregate.TasksProcessed, tasks)
	}
	used := 0
	for _, sh := range st.PerShard {
		if sh.Status == nil {
			t.Fatalf("shard %s has no status", sh.Name)
		}
		if sh.Status.TasksProcessed > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d shards served work; placement is not spreading", used)
	}
}

// accounting partitions reports into the cluster accounting classes and
// checks each report lands in exactly one.
type accounting struct {
	completed, rerouted, shed, abandoned, deadLetter int
}

func account(t *testing.T, reports []lake.Report) accounting {
	t.Helper()
	var a accounting
	for _, rep := range reports {
		classes := 0
		switch {
		case rep.Shed:
			a.shed++
			classes++
		case rep.Abandoned:
			a.abandoned++
			classes++
		case rep.DeadLettered:
			a.deadLetter++
			classes++
		case rep.Rerouted:
			a.rerouted++
			classes++
		default:
			a.completed++
			classes++
		}
		if classes != 1 {
			t.Fatalf("task %d in %d accounting classes: %+v", rep.TaskID, classes, rep)
		}
	}
	return a
}

// TestClusterKillShardZeroLost is the composed failure drill the ISSUE
// pins: kill one shard mid-run and prove every offered task is accounted —
// completed + rerouted + shed + abandoned + dead-letter = offered, zero
// silent drops — while the merged /metrics view still passes the strict
// conformance parser.
func TestClusterKillShardZeroLost(t *testing.T) {
	coord, workers, _ := newTestCluster(t, 4, 2*time.Millisecond, Options{})
	const tasks = 60
	// Kill the owner of the last task, so work keeps arriving for the dead
	// shard after the kill and the reroute path must carry it.
	victim := coord.Place(tasks - 1)
	requests := make(chan lake.Request)
	go func() {
		defer close(requests)
		for task := 0; task < tasks; task++ {
			if task == tasks/3 {
				for _, w := range workers {
					if w.Name() == victim {
						w.Kill()
					}
				}
			}
			requests <- lake.Request{TaskID: task, Data: testSet(task)}
			time.Sleep(time.Millisecond)
		}
	}()
	reports := coord.Run(context.Background(), requests)

	if len(reports) != tasks {
		t.Fatalf("lost tasks: %d reports for %d offered", len(reports), tasks)
	}
	a := account(t, reports)
	if got := a.completed + a.rerouted + a.shed + a.abandoned + a.deadLetter; got != tasks {
		t.Fatalf("accounting identity broken: %+v sums to %d, offered %d", a, got, tasks)
	}
	if a.rerouted == 0 {
		t.Fatalf("no task rerouted despite killing shard %s: %+v", victim, a)
	}
	if a.deadLetter != 0 || a.abandoned != 0 {
		t.Fatalf("tasks fell through with three healthy shards: %+v", a)
	}
	for _, rep := range reports {
		if rep.Rerouted {
			if rep.Err != nil {
				t.Fatalf("rerouted task %d carries error: %v", rep.TaskID, rep.Err)
			}
			if rep.Shard == victim {
				t.Fatalf("task %d rerouted onto the dead shard", rep.TaskID)
			}
			if coord.Place(rep.TaskID) != victim {
				t.Fatalf("task %d rerouted but its owner %s is alive", rep.TaskID, coord.Place(rep.TaskID))
			}
		}
	}

	// The merged exposition must still satisfy the conformance parser with
	// a dead shard in the scatter set.
	var buf bytes.Buffer
	if err := coord.WriteMetrics(context.Background(), &buf); err != nil {
		t.Fatalf("merged metrics with dead shard: %v", err)
	}
	merged, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged exposition failed conformance parse: %v", err)
	}
	reroutedTotal := 0.0
	if fam := merged["enld_cluster_rerouted_total"]; fam != nil {
		for _, s := range fam.Series {
			reroutedTotal += s.Value
		}
	}
	if int(reroutedTotal) != a.rerouted {
		t.Fatalf("metrics count %v rerouted, reports say %d", reroutedTotal, a.rerouted)
	}
	st := coord.Status(context.Background())
	if st.ShardsUp != 3 {
		t.Fatalf("shards_up = %d after killing one of four", st.ShardsUp)
	}
}

func TestClusterMetricsMerge(t *testing.T) {
	coord, workers, _ := newTestCluster(t, 2, 0, Options{})
	reports := runTasks(t, coord, 20)
	if len(reports) != 20 {
		t.Fatalf("got %d reports", len(reports))
	}
	var buf bytes.Buffer
	if err := coord.WriteMetrics(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	merged, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("conformance parse: %v\n%s", err, buf.String())
	}
	// Counters sum across shards to the cluster total.
	if v, ok := merged.Counter("enld_lake_tasks_total", map[string]string{"outcome": "ok"}); !ok || v != 20 {
		t.Fatalf("merged ok counter = %v, %v; want 20", v, ok)
	}
	h, ok := merged.Histogram("enld_lake_task_seconds", nil)
	if !ok || h.Count != 20 {
		t.Fatalf("merged latency histogram count = %v", h)
	}
	// Gauges survive per shard, labelled with the shard name.
	for _, w := range workers {
		if _, ok := merged.Gauge("enld_lake_queue_depth", map[string]string{"shard": w.Name()}); !ok {
			t.Fatalf("merged view missing queue_depth gauge for %s", w.Name())
		}
	}
	// Coordinator routing families pass through.
	if v, ok := merged.Gauge("enld_cluster_shards", nil); !ok || v != 2 {
		t.Fatalf("enld_cluster_shards = %v, %v; want 2", v, ok)
	}
	served := 0.0
	for _, w := range workers {
		if v, ok := merged.Counter("enld_cluster_served_total", map[string]string{"shard": w.Name()}); ok {
			served += v
		}
	}
	if served != 20 {
		t.Fatalf("served counters sum to %v, want 20", served)
	}
}

func TestShardWorkerDrain(t *testing.T) {
	w, err := NewShardWorker(stubDetector{}, WorkerConfig{Name: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := w.Submit(ctx, lake.Request{TaskID: 1, Data: testSet(1)})
	if err != nil || rep.Err != nil {
		t.Fatalf("submit: %v / %v", err, rep.Err)
	}
	if rep.Shard != "solo" {
		t.Fatalf("report shard = %q", rep.Shard)
	}
	if err := w.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Submit(ctx, lake.Request{TaskID: 2, Data: testSet(2)}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("submit after drain: %v, want ErrShardDown", err)
	}
	// Drain is idempotent, and a drained shard still answers status.
	if err := w.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := w.Status(ctx)
	if err != nil || st.TasksProcessed != 1 {
		t.Fatalf("status after drain: %+v, %v", st, err)
	}
}

func TestCoordinatorAllShardsDownDeadLetters(t *testing.T) {
	coord, workers, reg := newTestCluster(t, 2, 0, Options{})
	for _, w := range workers {
		w.Kill()
	}
	reports := runTasks(t, coord, 3)
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, rep := range reports {
		if !rep.DeadLettered || rep.Err == nil {
			t.Fatalf("task %d not dead-lettered with every shard down: %+v", rep.TaskID, rep)
		}
	}
	if v, ok := reg.Snapshot().Counter("enld_cluster_dead_letter_total", nil); !ok || v != 3 {
		t.Fatalf("dead letter counter = %v, %v; want 3", v, ok)
	}
}

func TestCoordinatorShutdownAbandons(t *testing.T) {
	coord, _, _ := newTestCluster(t, 2, 50*time.Millisecond, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	requests := make(chan lake.Request)
	go func() {
		defer close(requests)
		for task := 0; task < 8; task++ {
			requests <- lake.Request{TaskID: task, Data: testSet(task)}
		}
		cancel()
	}()
	reports := coord.Run(ctx, requests)
	if len(reports) != 8 {
		t.Fatalf("got %d reports for 8 offered", len(reports))
	}
	a := account(t, reports)
	if a.completed+a.rerouted+a.shed+a.abandoned+a.deadLetter != 8 {
		t.Fatalf("accounting identity broken at shutdown: %+v", a)
	}
}

// TestMergeStatusesSumsStorage: the cluster aggregate sums the shards'
// inventory counts; a shard without a status adds nothing, and recovery
// stays in the per-shard view.
func TestMergeStatusesSumsStorage(t *testing.T) {
	shards := []ShardStatus{
		{Name: "a", Up: true, Status: &lake.Status{Storage: &lake.InventoryStats{
			Backend: "seglog", Datasets: 2, Samples: 17, HasPlatform: true, Segments: 1,
			LiveBytes: 900, DeadBytes: 100, Appends: 3, Compactions: 1,
			Recovery: lake.RecoveryStats{TornTail: true, DroppedRecords: 1},
		}}},
		{Name: "b", Up: true, Status: &lake.Status{Storage: &lake.InventoryStats{
			Backend: "seglog", Datasets: 3, Samples: 40, HasPlatform: true, Segments: 2,
			LiveBytes: 2000, Appends: 4,
		}}},
		{Name: "c", Error: "down"},
	}
	want := lake.InventoryStats{
		Backend: "seglog", Datasets: 5, Samples: 57, HasPlatform: true, Segments: 3,
		LiveBytes: 2900, DeadBytes: 100, Appends: 7, Compactions: 1,
	}
	agg := mergeStatuses(shards)
	if agg.Storage == nil || *agg.Storage != want {
		t.Fatalf("aggregate storage = %+v, want %+v", agg.Storage, want)
	}
	if agg := mergeStatuses(shards[2:]); agg.Storage != nil {
		t.Fatalf("no shard reported storage, aggregate has %+v", agg.Storage)
	}
	shards[1].Status.Storage.Backend, shards[1].Status.Storage.HasPlatform = "memory", false
	if s := mergeStatuses(shards).Storage; s.Backend != "mixed" || s.HasPlatform {
		t.Fatalf("disagreeing shards merged to backend %q, has_platform %v", s.Backend, s.HasPlatform)
	}
}
