package lake

import (
	"context"
	"errors"
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

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }
	var transitions []string
	b.OnTransition(func(from, to BreakerState) {
		transitions = append(transitions, from.String()+">"+to.String())
	})

	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state=%v trips=%d after threshold", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}
	// Cooldown elapses: exactly one probe passes.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("half-open probe rejected")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe allowed")
	}
	// Probe fails: reopen.
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state=%v trips=%d", b.State(), b.Trips())
	}
	// Next cooldown, probe succeeds: closed again.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe rejected")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
	want := []string{"closed>open", "open>half-open", "half-open>open", "open>half-open", "half-open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, transitions[i], want[i])
		}
	}
}

func TestServiceBreakerTripsAndRecovers(t *testing.T) {
	primary := &switchable{}
	primary.set(true)
	policy := Policy{
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Millisecond,
		Fallback:         flagOdd{},
	}
	// One worker keeps the failure sequence strictly consecutive.
	svc, err := NewServiceWithPolicy(primary, 1, policy)
	if err != nil {
		t.Fatal(err)
	}
	healAfter := 6
	var mu sync.Mutex
	degradedBeforeHeal := 0
	n := 0
	svc.OnReport = func(rep Report) {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n < healAfter && rep.Degraded {
			degradedBeforeHeal++
		}
		if n == healAfter {
			// Primary heals while the breaker is open; the next half-open
			// probe should close it.
			primary.set(false)
		}
	}
	ctx := context.Background()
	// Pace arrivals past the cooldown so the breaker gets a probe window.
	reports := svc.Run(ctx, Feed(ctx, shards(14, 4), 10*time.Millisecond))
	if len(reports) != 14 {
		t.Fatalf("%d reports", len(reports))
	}
	if svc.Breaker().Trips() == 0 {
		t.Fatal("breaker never tripped")
	}
	if degradedBeforeHeal == 0 {
		t.Fatal("open breaker produced no degraded tasks")
	}
	if svc.Breaker().State() != BreakerClosed {
		t.Fatalf("breaker did not recover: %v", svc.Breaker().State())
	}
	// After recovery the tail of the stream is served by the primary again.
	last := reports[len(reports)-1]
	if last.Err != nil || last.Degraded {
		t.Fatalf("post-recovery task not primary-served: %+v", last)
	}
	// No task was lost: succeeded, degraded or dead-lettered only.
	for _, rep := range reports {
		if rep.Err != nil && !rep.DeadLettered {
			t.Fatalf("task %d failed without dead-letter flag: %v", rep.TaskID, rep.Err)
		}
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
	if _, err := NewServiceWithPolicy(flagOdd{}, 1, Policy{BreakerThreshold: -1}); err == nil {
		t.Error("negative breaker threshold accepted")
	}
	if _, err := NewServiceWithPolicy(flagOdd{}, 1, Policy{TaskTimeout: -time.Second}); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestChaosZeroLostTasks is the acceptance scenario: 20% injected failures
// plus occasional panics and slowdowns, served with a deadline, a breaker
// and a fallback. Every task ID must appear in the final reports as succeeded,
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
		TaskTimeout:      time.Second,
		BreakerThreshold: 4,
		BreakerCooldown:  20 * time.Millisecond,
		Fallback:         flagOdd{},
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
