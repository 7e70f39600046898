package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"enld/internal/lake"
	"enld/internal/obs"
)

// flakyShard is a Shard whose submissions fail while down is set; it counts
// the submissions that reach it.
type flakyShard struct {
	down  atomic.Bool
	calls atomic.Int64
}

func (s *flakyShard) Name() string { return "f0" }

func (s *flakyShard) Submit(_ context.Context, req lake.Request) (lake.Report, error) {
	s.calls.Add(1)
	if s.down.Load() {
		return lake.Report{}, ErrShardDown
	}
	return lake.Report{TaskID: req.TaskID, Size: len(req.Data)}, nil
}

func (s *flakyShard) Status(context.Context) (lake.Status, error) { return lake.Status{}, nil }
func (s *flakyShard) Metrics(context.Context) (obs.Parsed, error) { return nil, nil }
func (s *flakyShard) Drain(context.Context) error                 { return nil }

// mutedShard serves submissions but fails its status scrape, like a worker
// that exited after its last task.
type mutedShard struct{ flakyShard }

func (s *mutedShard) Status(context.Context) (lake.Status, error) {
	return lake.Status{}, errors.New("connection refused")
}

// TestStatusCountsOnlyAnsweringShards: a shard whose down-marker is up but
// whose status scrape fails keeps Up and carries the Error in its entry, and
// shards_up does not count it.
func TestStatusCountsOnlyAnsweringShards(t *testing.T) {
	coord, err := New([]Shard{&mutedShard{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := coord.Status(context.Background())
	if st.ShardsUp != 0 {
		t.Fatalf("shards_up = %d for a shard that did not answer, want 0", st.ShardsUp)
	}
	if entry := st.PerShard[0]; !entry.Up || entry.Error == "" || entry.Status != nil {
		t.Fatalf("per-shard entry = %+v, want up with an error and no status", entry)
	}
}

// TestDownMarker walks one shard's down-marker through every transition on
// an injected clock: down after one failed submission, skipped until the
// cooldown ends, one probe at a time after it, down again on a failed probe
// and up on a served one, but not on a late success that was no probe. At
// every step enld_cluster_shard_up and the status view's Up agree with the
// marker.
func TestDownMarker(t *testing.T) {
	sh := &flakyShard{}
	coord, err := New([]Shard{sh}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.SetObs(reg)
	clock := time.Unix(0, 0)
	mark := coord.marks[0]
	mark.now = func() time.Time { return clock }
	ctx := context.Background()

	check := func(step string, wantUp bool, wantCalls int64) {
		t.Helper()
		gauge, ok := reg.Snapshot().Gauge("enld_cluster_shard_up", map[string]string{"shard": "f0"})
		if want := map[bool]float64{true: 1, false: 0}[wantUp]; !ok || gauge != want {
			t.Fatalf("%s: enld_cluster_shard_up = %v, %v; want %v", step, gauge, ok, want)
		}
		if up := coord.Status(ctx).PerShard[0].Up; up != wantUp {
			t.Fatalf("%s: status up = %v, want %v", step, up, wantUp)
		}
		if got := sh.calls.Load(); got != wantCalls {
			t.Fatalf("%s: %d submissions reached the shard, want %d", step, got, wantCalls)
		}
	}
	task := 0
	submit := func() lake.Report {
		task++
		return coord.dispatch(ctx, lake.Request{TaskID: task, Data: testSet(task)})
	}

	check("new", true, 0)
	sh.down.Store(true)
	if rep := submit(); !rep.DeadLettered {
		t.Fatalf("failed submission not dead-lettered: %+v", rep)
	}
	check("one failure", false, 1)
	// A submission admitted before the shard went down and served late is
	// not a probe: the shard stays down.
	mark.served()
	check("late success", false, 1)

	clock = clock.Add(shardCooldown - time.Millisecond)
	submit()
	check("before the cooldown ends", false, 1)

	clock = clock.Add(time.Millisecond)
	if !mark.allow() {
		t.Fatal("probe refused after the cooldown")
	}
	if mark.allow() {
		t.Fatal("second concurrent probe allowed")
	}
	check("probing", false, 1)
	mark.failed()
	check("failed probe", false, 1)

	clock = clock.Add(shardCooldown - time.Millisecond)
	submit()
	check("cooldown restarted by the failed probe", false, 1)
	clock = clock.Add(time.Millisecond)
	submit()
	check("probe through dispatch fails", false, 2)

	clock = clock.Add(shardCooldown)
	sh.down.Store(false)
	if rep := submit(); rep.Err != nil || rep.Shard != "f0" {
		t.Fatalf("served probe report: %+v", rep)
	}
	check("served probe", true, 3)
	submit()
	check("up again", true, 4)
}
