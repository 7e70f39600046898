package lake

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
)

func TestAdmissionConfigValidation(t *testing.T) {
	for _, bad := range []AdmissionConfig{
		{QueueDepth: -1},
		{MaxQueueWait: -time.Second},
		{InitialServiceTime: -time.Millisecond},
		{EWMAAlpha: -0.1},
		{EWMAAlpha: 1.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if err := (AdmissionConfig{QueueDepth: 8}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	got, err := AdmissionConfig{QueueDepth: 8}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got.EWMAAlpha != 0.2 || got.InitialServiceTime != 50*time.Millisecond {
		t.Fatalf("defaults not filled: %+v", got)
	}
}

func TestServiceEWMAConverges(t *testing.T) {
	e := newServiceEWMA(0.5, 100*time.Millisecond)
	if got := e.value(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("seed = %v, want 0.1", got)
	}
	for i := 0; i < 40; i++ {
		e.observe(time.Second)
	}
	if got := e.value(); math.Abs(got-1) > 1e-6 {
		t.Fatalf("ewma after 40 1s observations = %v, want ≈1", got)
	}
}

func TestBrownoutConfigValidation(t *testing.T) {
	for _, bad := range []BrownoutConfig{
		{},                          // no pressure signal at all
		{QueueHigh: -1},             // negative watermark
		{QueueHigh: 2, QueueLow: 5}, // inverted depth band
		{P95High: time.Second, P95Low: 2 * time.Second}, // inverted p95 band
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if err := (BrownoutConfig{QueueHigh: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	got, err := BrownoutConfig{QueueHigh: 4}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != 250*time.Millisecond || got.EscalateAfter != 2 || got.RecoverAfter != 4 {
		t.Fatalf("defaults not filled: %+v", got)
	}
}

// TestBrownoutFSMTransitions walks the hysteresis contract through the exact
// boundary readings: escalation needs EscalateAfter consecutive pressured
// ticks, recovery needs RecoverAfter consecutive calm ones, in-band readings
// reset both streaks (no flapping), and every move is one rung.
func TestBrownoutFSMTransitions(t *testing.T) {
	cfg, err := BrownoutConfig{
		QueueHigh: 10, QueueLow: 2,
		P95High: time.Second, P95Low: 200 * time.Millisecond,
		EscalateAfter: 2, RecoverAfter: 3,
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	fsm := newBrownoutFSM(cfg, 4)
	nan := math.NaN()

	steps := []struct {
		name    string
		depth   int
		p95     float64
		tier    int
		changed bool
	}{
		{"calm baseline", 0, 0.05, 0, false},
		{"pressure 1/2 (depth at high watermark)", 10, 0.05, 0, false},
		{"in-band resets the hot streak", 5, 0.5, 0, false},
		{"pressure 1/2 again", 12, 0.05, 0, false},
		{"pressure 2/2 → tier 1", 12, 0.05, 1, true},
		{"pressure 1/2 (streak reset by the move)", 12, 0.05, 1, false},
		{"pressure 2/2 via p95 alone → tier 2", 0, 1.5, 2, true},
		{"pressure 1/2", 11, nan, 2, false},
		{"pressure 2/2 → tier 3", 11, nan, 3, true},
		{"pressure pinned at bottom tier", 11, 2.0, 3, false},
		{"pressure still pinned", 11, 2.0, 3, false},
		{"calm 1/3 (both at low watermarks)", 2, 0.2, 3, false},
		{"calm 2/3 (NaN p95 counts calm)", 0, nan, 3, false},
		{"in-band depth resets the cool streak", 5, 0.05, 3, false},
		{"calm 1/3", 1, 0.05, 3, false},
		{"calm 2/3", 1, 0.05, 3, false},
		{"calm 3/3 → tier 2", 1, 0.05, 2, true},
		{"calm 1/3 (streak reset by the move)", 1, 0.05, 2, false},
		{"calm 2/3", 1, 0.05, 2, false},
		{"calm 3/3 → tier 1", 1, 0.05, 1, true},
		{"calm ×3 → tier 0", 1, 0.05, 1, false},
		{"...", 1, 0.05, 1, false},
		{"recovered to full", 1, 0.05, 0, true},
		{"calm pinned at tier 0", 0, 0.01, 0, false},
	}
	for i, st := range steps {
		tier, changed := fsm.observe(st.depth, st.p95)
		if tier != st.tier || changed != st.changed {
			t.Fatalf("step %d (%s): got tier %d changed %v, want tier %d changed %v",
				i, st.name, tier, changed, st.tier, st.changed)
		}
	}
}

// TestBrownoutFSMNoFlapOnOscillation feeds a load oscillating across the
// hysteresis band faster than either streak requirement and checks the tier
// never moves.
func TestBrownoutFSMNoFlapOnOscillation(t *testing.T) {
	cfg, _ := BrownoutConfig{QueueHigh: 10, QueueLow: 2, EscalateAfter: 2, RecoverAfter: 2}.normalized()
	fsm := newBrownoutFSM(cfg, 3)
	for i := 0; i < 50; i++ {
		depth := 1
		if i%2 == 0 {
			depth = 11
		}
		if tier, changed := fsm.observe(depth, math.NaN()); changed || tier != 0 {
			t.Fatalf("tick %d: oscillating load moved the tier to %d", i, tier)
		}
	}
}

func TestBrownoutLadderValidation(t *testing.T) {
	det := flagOdd{}
	for name, ladder := range map[string][]TierDetector{
		"single rung":  {{Name: TierFull, Detector: det}},
		"nil detector": {{Name: TierFull, Detector: det}, {Name: TierFallback}},
		"unnamed rung": {{Name: TierFull, Detector: det}, {Detector: det}},
		"duplicate":    {{Name: TierFull, Detector: det}, {Name: TierFull, Detector: det}},
	} {
		if _, err := newBrownout(ladder, BrownoutConfig{QueueHigh: 1}); err == nil {
			t.Errorf("%s ladder accepted", name)
		}
	}
}

// TestServiceShedsOnPredictedWait pins the deadline-aware shedder: with the
// EWMA seeded at 50ms, any queued task predicts a wait beyond the 1ms budget,
// so everything that arrives while the single worker is busy is shed — and
// every arrival is accounted exactly once.
func TestServiceShedsOnPredictedWait(t *testing.T) {
	svc, err := NewServiceWithPolicy(flagOdd{delay: 10 * time.Millisecond}, 1, Policy{
		Admission: AdmissionConfig{QueueDepth: 8, MaxQueueWait: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 12
	reports := svc.Run(ctx, Feed(ctx, shards(n, 2), 0))
	if len(reports) != n {
		t.Fatalf("%d reports for %d arrivals", len(reports), n)
	}
	var ok, shed int
	for _, rep := range reports {
		switch {
		case rep.Shed:
			shed++
			if rep.Err == nil || !strings.Contains(rep.Err.Error(), "shed") {
				t.Fatalf("shed task %d error = %v", rep.TaskID, rep.Err)
			}
			if rep.Result != nil {
				t.Fatalf("shed task %d carries a result", rep.TaskID)
			}
		case rep.Err == nil:
			ok++
		default:
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok = %d, shed = %d; want both non-zero", ok, shed)
	}
	st := svc.OverloadStatus()
	if st.TasksShed != shed {
		t.Fatalf("status reports %d shed, reports carry %d", st.TasksShed, shed)
	}
	if st.BrownoutTier != -1 {
		t.Fatalf("brownout tier = %d without a ladder, want -1", st.BrownoutTier)
	}
}

// TestServiceShedsOnFullQueue pins the queue-capacity backstop with the
// deadline check disabled.
func TestServiceShedsOnFullQueue(t *testing.T) {
	svc, err := NewServiceWithPolicy(flagOdd{delay: 20 * time.Millisecond}, 1, Policy{
		Admission: AdmissionConfig{QueueDepth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 10
	reports := svc.Run(ctx, Feed(ctx, shards(n, 2), 0))
	if len(reports) != n {
		t.Fatalf("%d reports for %d arrivals", len(reports), n)
	}
	full := 0
	for _, rep := range reports {
		if rep.Shed && strings.Contains(rep.Err.Error(), "queue full") {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no queue-full shed despite a 1-deep queue and a slow worker")
	}
}

// flagAll marks every sample noisy — a deliberately different answer from
// flagOdd, so the differential test can tell which detector served a task.
type flagAll struct{ delay time.Duration }

func (flagAll) Name() string { return "flag-all" }

func (f flagAll) Detect(d dataset.Set) (*detect.Result, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	res := detect.NewResult()
	for _, smp := range d {
		res.MarkNoisy(smp.ID)
	}
	return res, nil
}

// TestBrownoutDifferentialTierStamping is the differential check: a task is
// served by the detector of the tier it was admitted at, even when the
// controller changes tier while the task waits in the queue. Every report's
// result must match a fresh run of its stamped tier's detector on the same
// data — no report may show tier A's label with tier B's output.
func TestBrownoutDifferentialTierStamping(t *testing.T) {
	svc, err := NewServiceWithPolicy(flagOdd{delay: 15 * time.Millisecond}, 1, Policy{
		Admission: AdmissionConfig{QueueDepth: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetBrownout([]TierDetector{
		{Name: TierFull, Detector: flagOdd{delay: 15 * time.Millisecond}},
		{Name: TierFallback, Detector: flagAll{delay: time.Millisecond}},
	}, BrownoutConfig{
		QueueHigh: 2, QueueLow: 0,
		Interval:      2 * time.Millisecond,
		EscalateAfter: 1, RecoverAfter: 1000,
	}, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := shards(24, 4)
	// Pace arrivals: a 2ms cadence against a 15ms tier-0 detector builds the
	// queue past the watermark while admissions are still flowing, so tasks
	// get stamped on both sides of the escalation.
	reports := svc.Run(ctx, Feed(ctx, data, 2*time.Millisecond))
	if len(reports) != len(data) {
		t.Fatalf("%d reports for %d arrivals", len(reports), len(data))
	}
	tiers := map[string]int{}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
		tiers[rep.Tier]++
		want, err := tierOracle(rep.Tier).Detect(data[rep.TaskID])
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Result.Noisy) != len(want.Noisy) {
			t.Fatalf("task %d (tier %s): %d noisy, its tier's detector says %d",
				rep.TaskID, rep.Tier, len(rep.Result.Noisy), len(want.Noisy))
		}
		for id := range want.Noisy {
			if !rep.Result.Noisy[id] {
				t.Fatalf("task %d (tier %s): sample %d missing from noisy set", rep.TaskID, rep.Tier, id)
			}
		}
	}
	if tiers[TierFull] == 0 || tiers[TierFallback] == 0 {
		t.Fatalf("both tiers should have served tasks, got %v", tiers)
	}
	st := svc.OverloadStatus()
	if st.BrownoutMaxTier < 1 || st.TierChanges < 1 {
		t.Fatalf("controller never escalated: %+v", st)
	}
}

// tierOracle returns an independent instance of the detector a tier name
// maps to in the differential test's ladder.
func tierOracle(tier string) detect.Detector {
	if tier == TierFallback {
		return flagAll{}
	}
	return flagOdd{}
}

// TestBrownoutRecoversTierByTier runs the controller over an idle service and
// checks a forced deep tier walks back rung by rung rather than jumping.
func TestBrownoutRecoversTierByTier(t *testing.T) {
	svc, err := NewServiceWithPolicy(flagOdd{}, 1, Policy{
		Admission: AdmissionConfig{QueueDepth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var transitions [][2]int
	var mu sync.Mutex
	if err := svc.SetBrownout([]TierDetector{
		{Name: TierFull, Detector: flagOdd{}},
		{Name: "middle", Detector: flagOdd{}},
		{Name: TierFallback, Detector: flagAll{}},
	}, BrownoutConfig{
		QueueHigh: 1000, QueueLow: 1,
		Interval:      time.Millisecond,
		EscalateAfter: 1, RecoverAfter: 2,
	}, func(from, to int) {
		mu.Lock()
		transitions = append(transitions, [2]int{from, to})
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	// Force the deepest tier, then let an idle-but-open run recover it.
	svc.brownout.tier.Store(2)
	svc.brownout.fsm.tier = 2

	requests := make(chan Request)
	go func() {
		requests <- Request{TaskID: 0, Data: shards(1, 2)[0]}
		// Keep the service alive long enough for the 1ms-cadence controller
		// to tick through both recovery steps (RecoverAfter=2 each).
		time.Sleep(40 * time.Millisecond)
		close(requests)
	}()
	svc.Run(context.Background(), requests)

	if got := svc.brownout.activeTier(); got != 0 {
		t.Fatalf("tier after idle run = %d, want full recovery to 0", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tr := range transitions {
		if tr[0]-tr[1] != 1 {
			t.Fatalf("recovery jumped %d → %d; must move one rung at a time", tr[0], tr[1])
		}
	}
	if len(transitions) != 2 {
		t.Fatalf("%d transitions recorded, want 2 (2→1, 1→0)", len(transitions))
	}
}
