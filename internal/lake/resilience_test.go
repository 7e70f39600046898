package lake

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/fault"
)

// countCalls counts the Detect calls reaching the detector it wraps.
type countCalls struct {
	detect.Detector
	calls atomic.Int64
}

func (c *countCalls) Detect(d dataset.Set) (*detect.Result, error) {
	c.calls.Add(1)
	return c.Detector.Detect(d)
}

// switchable fails while broken is set.
type switchable struct {
	mu     sync.Mutex
	broken bool
}

func (s *switchable) Name() string { return "switchable" }

func (s *switchable) set(broken bool) {
	s.mu.Lock()
	s.broken = broken
	s.mu.Unlock()
}

func (s *switchable) Detect(d dataset.Set) (*detect.Result, error) {
	s.mu.Lock()
	broken := s.broken
	s.mu.Unlock()
	if broken {
		return nil, errors.New("hard failure")
	}
	res := detect.NewResult()
	for _, smp := range d {
		res.MarkClean(smp.ID)
	}
	return res, nil
}

// stuck never returns until released, counting its invocations.
type stuck struct {
	release chan struct{}
	calls   *atomic.Int64
}

func (s stuck) Name() string { return "stuck" }
func (s stuck) Detect(dataset.Set) (*detect.Result, error) {
	if s.calls != nil {
		s.calls.Add(1)
	}
	<-s.release
	return detect.NewResult(), nil
}

// TestInjectedFailureAttemptedOnce: an injected error fails its task's one
// primary attempt. With a fallback the task degrades; without one it
// dead-letters. Either way the primary detector ran exactly once per task.
func TestInjectedFailureAttemptedOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fallback detect.Detector
	}{
		{"fallback", flagOdd{}},
		{"no-fallback", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := fault.New(flagOdd{}, fault.Config{Seed: 3, FailRate: 1})
			if err != nil {
				t.Fatal(err)
			}
			primary := &countCalls{Detector: inj}
			svc, err := NewServiceWithPolicy(primary, 2, Policy{Fallback: tc.fallback})
			if err != nil {
				t.Fatal(err)
			}
			const n = 5
			ctx := context.Background()
			reports := svc.Run(ctx, Feed(ctx, shards(n, 4), 0))
			if len(reports) != n {
				t.Fatalf("%d reports for %d tasks", len(reports), n)
			}
			for _, rep := range reports {
				var fe *fault.Error
				switch {
				case tc.fallback != nil && (rep.Err != nil || !rep.Degraded):
					t.Fatalf("task %d: err=%v degraded=%v, want degraded", rep.TaskID, rep.Err, rep.Degraded)
				case tc.fallback == nil && (!rep.DeadLettered || !errors.As(rep.Err, &fe)):
					t.Fatalf("task %d: dead-lettered=%v err=%v, want the injected error dead-lettered",
						rep.TaskID, rep.DeadLettered, rep.Err)
				}
			}
			if got := primary.calls.Load(); got != n {
				t.Fatalf("primary detector called %d times for %d tasks, want once per task", got, n)
			}
		})
	}
}

func TestNonTransientErrorNotRetried(t *testing.T) {
	det := &switchable{}
	det.set(true)
	primary := &countCalls{Detector: det}
	svc, _ := NewServiceWithPolicy(primary, 1, Policy{})
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(1, 4), 0))
	if rep := reports[0]; rep.Err == nil || !rep.DeadLettered {
		t.Fatalf("hard failure not dead-lettered: %+v", rep)
	}
	if got := primary.calls.Load(); got != 1 {
		t.Fatalf("hard failure attempted %d times, want once", got)
	}
}

func TestTaskTimeoutUnwedgesWorker(t *testing.T) {
	det := stuck{release: make(chan struct{})}
	defer close(det.release)
	svc, _ := NewServiceWithPolicy(det, 1, Policy{TaskTimeout: 10 * time.Millisecond})
	ctx := context.Background()
	start := time.Now()
	reports := svc.Run(ctx, Feed(ctx, shards(2, 2), 0))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stuck detector wedged the worker for %s", elapsed)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	for _, rep := range reports {
		if !errors.Is(rep.Err, context.DeadlineExceeded) {
			t.Fatalf("timeout not reported: %v", rep.Err)
		}
	}
}

// TestTaskTimeoutNotRetried: a timed-out attempt is final. Detect is
// deterministic for its input, so a second attempt would only pile a second
// live call onto the abandoned one; the task goes straight to the fallback.
func TestTaskTimeoutNotRetried(t *testing.T) {
	det := stuck{release: make(chan struct{}), calls: new(atomic.Int64)}
	defer close(det.release)
	svc, _ := NewServiceWithPolicy(det, 1, Policy{
		TaskTimeout: 10 * time.Millisecond,
		Fallback:    flagOdd{},
	})
	ctx := context.Background()
	const n = 3
	reports := svc.Run(ctx, Feed(ctx, shards(n, 2), 0))
	if len(reports) != n {
		t.Fatalf("%d reports for %d tasks", len(reports), n)
	}
	for _, rep := range reports {
		if rep.Err != nil || !rep.Degraded {
			t.Fatalf("task %d: err=%v degraded=%v; want degraded", rep.TaskID, rep.Err, rep.Degraded)
		}
	}
	if got := det.calls.Load(); got != n {
		t.Fatalf("stuck detector invoked %d times for %d tasks, want once per task", got, n)
	}
}

func TestFallbackDegradesFailedTask(t *testing.T) {
	primary := &switchable{}
	primary.set(true)
	svc, _ := NewServiceWithPolicy(primary, 1, Policy{Fallback: flagOdd{}})
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(3, 4), 0))
	if len(reports) != 3 {
		t.Fatalf("%d reports", len(reports))
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("fallback did not rescue task %d: %v", rep.TaskID, rep.Err)
		}
		if !rep.Degraded {
			t.Fatalf("fallback result not flagged degraded: %+v", rep)
		}
		// flagOdd is exact on this workload: the degraded path still
		// produces a scored result.
		if rep.Detection.F1 != 1 {
			t.Fatalf("degraded F1 = %v", rep.Detection.F1)
		}
	}
}

func TestFallbackFailureDeadLettersWithBothErrors(t *testing.T) {
	primary := &switchable{}
	primary.set(true)
	svc, _ := NewServiceWithPolicy(primary, 1, Policy{Fallback: failing{}})
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(1, 2), 0))
	rep := reports[0]
	if !rep.DeadLettered || rep.Err == nil {
		t.Fatalf("not dead-lettered: %+v", rep)
	}
	msg := rep.Err.Error()
	if !strings.Contains(msg, "hard failure") || !strings.Contains(msg, "fallback") {
		t.Fatalf("dead-letter error lost causes: %v", msg)
	}
}

func TestSkipCompletedDropsRecoveredTasks(t *testing.T) {
	svc, _ := NewService(flagOdd{}, 2)
	svc.SkipCompleted(map[int]bool{0: true, 2: true, 4: true})
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(6, 2), 0))
	if len(reports) != 3 {
		t.Fatalf("%d reports after skipping 3 of 6", len(reports))
	}
	for _, rep := range reports {
		if rep.TaskID%2 == 0 {
			t.Fatalf("skipped task %d was processed", rep.TaskID)
		}
	}
}

// TestSkipCompletedAppendsEachArrivalOnce: a resumed service processes an
// arrival the inventory already stores (its outcome torn or never written)
// without appending it again, and appends a new arrival exactly once.
func TestSkipCompletedAppendsEachArrivalOnce(t *testing.T) {
	inv := NewMemInventory()
	data := shards(4, 2)
	for i := range 3 {
		if _, err := inv.AppendDataset(fmt.Sprintf("task-%d", i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	svc, _ := NewService(flagOdd{}, 2)
	svc.SetInventory(inv)
	if err := svc.SkipCompleted(map[int]bool{0: true, 1: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, data, 0))
	if len(reports) != 2 || reports[0].TaskID != 2 || reports[1].TaskID != 3 {
		t.Fatalf("reports %+v, want tasks 2 and 3", reports)
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
	}
	metas, err := inv.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metas {
		names = append(names, m.Name)
	}
	if want := []string{"task-0", "task-1", "task-2", "task-3"}; !slices.Equal(names, want) {
		t.Fatalf("inventory holds %v, want %v", names, want)
	}
}

func TestServiceZeroRequests(t *testing.T) {
	svc, _ := NewService(flagOdd{}, 2)
	requests := make(chan Request)
	close(requests)
	reports := svc.Run(context.Background(), requests)
	if len(reports) != 0 {
		t.Fatalf("%d reports from empty stream", len(reports))
	}
}

func TestServiceCancelMidFeed(t *testing.T) {
	svc, _ := NewService(flagOdd{delay: 2 * time.Millisecond}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	requests := make(chan Request)
	go func() {
		for i := 0; ; i++ {
			select {
			case requests <- Request{TaskID: i, Data: shards(1, 2)[0]}:
			case <-ctx.Done():
				close(requests)
				return
			}
			if i == 4 {
				cancel()
			}
		}
	}()
	reports := svc.Run(ctx, requests)
	// In-flight tasks are finished, queued ones reported as Abandoned (not
	// silently dropped), and the service returns instead of hanging.
	processed := 0
	for _, rep := range reports {
		if rep.Abandoned {
			if rep.Err == nil {
				t.Fatalf("abandoned task %d carries no error", rep.TaskID)
			}
			continue
		}
		if rep.Err != nil {
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
		processed++
	}
	if processed == 0 {
		t.Fatal("no tasks processed before cancel")
	}
	if got := svc.OverloadStatus().TasksAbandoned; got != len(reports)-processed {
		t.Fatalf("status reports %d abandoned, reports carry %d", got, len(reports)-processed)
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := NewServiceWithPolicy(flagOdd{}, 1, Policy{TaskTimeout: -time.Second}); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestChaosZeroLostTasks is the acceptance scenario: 20% injected failures
// plus occasional panics and slowdowns, served with a deadline and a
// fallback. Every task ID must appear in the final reports as succeeded,
// degraded or dead-lettered — nothing lost, nothing silently relabelled as
// primary output.
func TestChaosZeroLostTasks(t *testing.T) {
	inj, err := fault.New(flagOdd{}, fault.Config{
		Seed:      11,
		FailRate:  0.2,
		PanicRate: 0.05,
		SlowRate:  0.1,
		Latency:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy := Policy{
		TaskTimeout: time.Second,
		Fallback:    flagOdd{},
	}
	svc, err := NewServiceWithPolicy(inj, 4, policy)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 40
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(tasks, 4), 0))
	if len(reports) != tasks {
		t.Fatalf("%d reports for %d tasks", len(reports), tasks)
	}
	seen := map[int]bool{}
	succeeded, degraded, dead := 0, 0, 0
	for _, rep := range reports {
		if seen[rep.TaskID] {
			t.Fatalf("task %d reported twice", rep.TaskID)
		}
		seen[rep.TaskID] = true
		switch {
		case rep.DeadLettered:
			dead++
		case rep.Err != nil:
			t.Fatalf("task %d failed without dead-letter flag: %v", rep.TaskID, rep.Err)
		case rep.Degraded:
			degraded++
		default:
			succeeded++
		}
	}
	for id := 0; id < tasks; id++ {
		if !seen[id] {
			t.Fatalf("task %d lost", id)
		}
	}
	if succeeded+degraded+dead != tasks {
		t.Fatalf("accounting broken: %d+%d+%d != %d", succeeded, degraded, dead, tasks)
	}
	if succeeded == 0 {
		t.Fatal("chaos run had zero primary successes")
	}
	t.Logf("chaos: %d succeeded, %d degraded, %d dead-lettered", succeeded, degraded, dead)
}
