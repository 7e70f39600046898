package lake

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
)

func TestAdmissionConfigValidation(t *testing.T) {
	for _, bad := range []AdmissionConfig{
		{QueueDepth: -1},
		{MaxQueueWait: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if err := (AdmissionConfig{QueueDepth: 8}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
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

func TestBrownoutLadderValidation(t *testing.T) {
	det := flagOdd{}
	for name, ladder := range map[string][]TierDetector{
		"single rung":  {{Name: TierFull, Detector: det}},
		"nil detector": {{Name: TierFull, Detector: det}, {Name: TierFallback}},
		"unnamed rung": {{Name: TierFull, Detector: det}, {Detector: det}},
		"duplicate":    {{Name: TierFull, Detector: det}, {Name: TierFull, Detector: det}},
	} {
		if err := validateLadder(ladder); err == nil {
			t.Errorf("%s ladder accepted", name)
		}
	}
	ladder := []TierDetector{{Name: TierFull, Detector: det}, {Name: TierFallback, Detector: flagAll{}}}
	if err := validateLadder(ladder); err != nil {
		t.Fatalf("sound ladder rejected: %v", err)
	}
	// The rung is picked from the predicted wait against the wait budget,
	// so a ladder without bounded admission and a budget is refused.
	for _, a := range []AdmissionConfig{{}, {QueueDepth: 8}, {MaxQueueWait: time.Second}} {
		svc, err := NewServiceWithPolicy(det, 1, Policy{Admission: a})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.SetBrownout(ladder); err == nil {
			t.Errorf("ladder accepted under admission %+v", a)
		}
	}
}

// TestAdmitPicksRung pins the admission rule on fixed EWMAs and depths, with
// no clock involved. With one rung it must agree with the plain shedding
// test depth × EWMA / workers > MaxQueueWait at every grid point; with N
// rungs the task takes the first rung r < N−1 whose budget
// MaxQueueWait·(r+1)/N covers the predicted wait, else the last rung within
// MaxQueueWait, else it is shed.
func TestAdmitPicksRung(t *testing.T) {
	// singleRungShed is the one-rung rule as it stood before ladders chose
	// rungs at admission.
	singleRungShed := func(depth int64, ewma float64, workers int, a AdmissionConfig) bool {
		if int(depth) >= a.QueueDepth {
			return true
		}
		if a.MaxQueueWait > 0 {
			predicted := time.Duration(float64(depth) * ewma / float64(workers) * float64(time.Second))
			return predicted > a.MaxQueueWait
		}
		return false
	}
	for _, workers := range []int{1, 2, 3} {
		for _, wait := range []time.Duration{0, 100 * time.Millisecond, 300 * time.Millisecond} {
			a := AdmissionConfig{QueueDepth: 12, MaxQueueWait: wait}
			svc, err := NewServiceWithPolicy(flagOdd{}, workers, Policy{Admission: a})
			if err != nil {
				t.Fatal(err)
			}
			for _, ewma := range []time.Duration{time.Millisecond, 13 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 333700 * time.Microsecond} {
				svc.rungs[0].ewma = newServiceEWMA(0.2, ewma)
				for depth := int64(0); depth <= 13; depth++ {
					svc.rungs[0].queued.Store(depth)
					tier, err := svc.admit(a)
					want := singleRungShed(depth, svc.rungs[0].ewma.value(), workers, a)
					if (err != nil) != want || tier != 0 {
						t.Fatalf("workers=%d wait=%s ewma=%s depth=%d: tier %d, shed %v; want tier 0, shed %v",
							workers, wait, ewma, depth, tier, err != nil, want)
					}
				}
			}
		}
	}

	const shed = -1
	ms := time.Millisecond
	for _, tc := range []struct {
		name    string
		workers int
		wait    time.Duration
		ewma    []time.Duration // per rung
		depth   []int64         // per rung
		want    int             // rung index, or shed
	}{
		// N = 2 over 2 workers, 250ms budget: full while W ≤ 125ms.
		{"2 rungs idle", 2, 250 * ms, []time.Duration{125 * ms, 15625 * time.Microsecond}, []int64{0, 0}, 0},
		{"2 rungs full at its budget", 2, 250 * ms, []time.Duration{125 * ms, 15625 * time.Microsecond}, []int64{2, 0}, 0},
		{"2 rungs past the full budget", 2, 250 * ms, []time.Duration{125 * ms, 15625 * time.Microsecond}, []int64{3, 0}, 1},
		{"2 rungs fallback work counts", 2, 250 * ms, []time.Duration{125 * ms, 15625 * time.Microsecond}, []int64{2, 1}, 1},
		{"2 rungs fallback at the whole budget", 2, 250 * ms, []time.Duration{125 * ms, 15625 * time.Microsecond}, []int64{4, 0}, 1},
		{"2 rungs cheap queue leaves full", 2, 250 * ms, []time.Duration{125 * ms, 15625 * time.Microsecond}, []int64{0, 11}, 0},
		{"2 rungs past the whole budget", 2, 250 * ms, []time.Duration{125 * ms, 15625 * time.Microsecond}, []int64{4, 1}, shed},
		{"2 rungs queue full", 2, 250 * ms, []time.Duration{125 * ms, 15625 * time.Microsecond}, []int64{0, 12}, shed},
		// N = 3 over 1 worker, 300ms budget: rung 0 to 100ms, rung 1 to 200ms.
		{"3 rungs idle", 1, 300 * ms, []time.Duration{125 * ms, 62500 * time.Microsecond, 15625 * time.Microsecond}, []int64{0, 0, 0}, 0},
		{"3 rungs within the first third", 1, 300 * ms, []time.Duration{125 * ms, 62500 * time.Microsecond, 15625 * time.Microsecond}, []int64{0, 1, 0}, 0},
		{"3 rungs second third", 1, 300 * ms, []time.Duration{125 * ms, 62500 * time.Microsecond, 15625 * time.Microsecond}, []int64{1, 0, 0}, 1},
		{"3 rungs second third, mixed", 1, 300 * ms, []time.Duration{125 * ms, 62500 * time.Microsecond, 15625 * time.Microsecond}, []int64{1, 1, 0}, 1},
		{"3 rungs last third", 1, 300 * ms, []time.Duration{125 * ms, 62500 * time.Microsecond, 15625 * time.Microsecond}, []int64{2, 0, 0}, 2},
		{"3 rungs cheap queue in the second third", 1, 300 * ms, []time.Duration{125 * ms, 62500 * time.Microsecond, 15625 * time.Microsecond}, []int64{0, 0, 11}, 1},
		{"3 rungs past the budget", 1, 300 * ms, []time.Duration{125 * ms, 62500 * time.Microsecond, 15625 * time.Microsecond}, []int64{2, 1, 0}, shed},
	} {
		a := AdmissionConfig{QueueDepth: 12, MaxQueueWait: tc.wait}
		svc, err := NewServiceWithPolicy(flagOdd{}, tc.workers, Policy{Admission: a})
		if err != nil {
			t.Fatal(err)
		}
		ladder := make([]TierDetector, len(tc.ewma))
		for i := range ladder {
			ladder[i] = TierDetector{Name: string(rune('a' + i)), Detector: flagOdd{}}
		}
		if err := svc.SetBrownout(ladder); err != nil {
			t.Fatal(err)
		}
		for i, r := range svc.rungs {
			r.ewma = newServiceEWMA(0.2, tc.ewma[i])
			r.queued.Store(tc.depth[i])
		}
		tier, err := svc.admit(a)
		got := tier
		if err != nil {
			got = shed
		}
		if got != tc.want {
			t.Errorf("%s: admitted at %d (err %v), want %d", tc.name, got, err, tc.want)
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

// tierStampingService is a two-rung service whose admission rule moves
// arrivals between rungs: one worker, a 50ms full rung (the EWMA's seed
// service time), a 1ms fallback rung and a 60ms wait budget, so the full
// rung takes a task only while the predicted wait is at most 30ms.
func tierStampingService(t *testing.T) *Service {
	t.Helper()
	svc, err := NewServiceWithPolicy(flagOdd{}, 1, Policy{
		Admission: AdmissionConfig{QueueDepth: 32, MaxQueueWait: 60 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetBrownout([]TierDetector{
		{Name: TierFull, Detector: flagOdd{delay: 50 * time.Millisecond}},
		{Name: TierFallback, Detector: flagAll{delay: time.Millisecond}},
	}); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestBrownoutDifferentialTierStamping is the differential check: a task is
// served by the detector of the rung it was admitted at. Arrivals every 2ms
// against the 50ms full rung build the queue past the full rung's budget,
// so admission stamps tasks on both rungs. Every served report's result must
// match a fresh run of its stamped rung's detector on the same data — no
// report may show tier A's label with tier B's output — and a shed report
// carries no tier.
func TestBrownoutDifferentialTierStamping(t *testing.T) {
	svc := tierStampingService(t)
	ctx := context.Background()
	data := shards(24, 4)
	reports := svc.Run(ctx, Feed(ctx, data, 2*time.Millisecond))
	if len(reports) != len(data) {
		t.Fatalf("%d reports for %d arrivals", len(reports), len(data))
	}
	tiers := map[string]int{}
	for _, rep := range reports {
		if rep.Shed {
			if rep.Tier != "" || rep.Result != nil {
				t.Fatalf("shed task %d carries tier %q / a result", rep.TaskID, rep.Tier)
			}
			continue
		}
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
}

// tierOracle returns an independent instance of the detector a tier name
// maps to in the differential test's ladder.
func tierOracle(tier string) detect.Detector {
	if tier == TierFallback {
		return flagAll{}
	}
	return flagOdd{}
}
