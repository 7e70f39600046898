package workload

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"enld/internal/fault"
	"enld/internal/lake"
)

// testSpec is the fixed scenario the determinism pin runs on.
func testSpec() Spec {
	return Spec{
		Name:    "pinned",
		Seed:    7,
		Preset:  "emnist",
		Method:  "default",
		Workers: 2,
		Phases: []Phase{
			{Name: "warm", DurationSeconds: 5, Rate: 4},
			{Name: "burst", DurationSeconds: 2, Rate: 20},
			{Name: "ramp", DurationSeconds: 5, Rate: 2, RateEnd: 10},
		},
		Datasets: 8,
		Skew:     1.1,
		Sizes: []SizeClass{
			{Samples: 30, Weight: 3},
			{Samples: 90, Weight: 1},
		},
		NoiseMix: []NoiseClass{
			{Rate: 0, Weight: 1},
			{Rate: 0.2, Kind: NoisePair, Weight: 2},
			{Rate: 0.4, Kind: NoiseSymmetric, Weight: 1},
		},
	}
}

// pinnedTraceHash is the FNV-1a hash of testSpec's canonical trace
// encoding. It pins the generator's determinism contract: any change to the
// RNG draw order, the Zipf weighting, the arrival math or the encoding is a
// trace-format break and must update this constant (and be called out as a
// breaking change in the PR).
const pinnedTraceHash uint64 = 0x30bb3c6fcfdae2e3

func TestGenTraceDeterministic(t *testing.T) {
	// Generation must not depend on available parallelism: run once at the
	// ambient GOMAXPROCS and once pinned to 1.
	a, err := GenTrace(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	b, err := GenTrace(testSpec())
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	rawA, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("same spec generated different traces")
	}
	h, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != pinnedTraceHash {
		t.Fatalf("trace hash = %#x, want %#x — the generator's output changed; "+
			"if intentional, update pinnedTraceHash and flag the trace-format break", h, pinnedTraceHash)
	}
}

func TestGenTraceShape(t *testing.T) {
	spec := testSpec()
	tr, err := GenTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Catalog) != spec.Datasets {
		t.Fatalf("catalog size %d, want %d", len(tr.Catalog), spec.Datasets)
	}
	for j, m := range tr.Catalog {
		if m.Samples != 30 && m.Samples != 90 {
			t.Errorf("catalog[%d].Samples = %d, not in the size mix", j, m.Samples)
		}
		if m.NoiseRate == 0 && m.NoiseKind != "none" {
			t.Errorf("catalog[%d]: clean entry with kind %q", j, m.NoiseKind)
		}
	}
	// Events are strictly ordered in time with sequential task IDs, inside
	// the scheduled duration, and reference real catalog entries.
	var last time.Duration
	for i, e := range tr.Events {
		if e.Task != i {
			t.Fatalf("event %d has task ID %d", i, e.Task)
		}
		if e.At < last {
			t.Fatalf("event %d at %s before previous %s", i, e.At, last)
		}
		if e.At >= tr.Duration {
			t.Fatalf("event %d at %s past duration %s", i, e.At, tr.Duration)
		}
		if e.Entry < 0 || e.Entry >= spec.Datasets {
			t.Fatalf("event %d references entry %d", i, e.Entry)
		}
		last = e.At
	}
	// Offered load should be in the right ballpark: expectation is
	// 5·4 + 2·20 + 5·6 = 90 events; Poisson draws put ±40% far outside
	// plausible variance.
	if n := len(tr.Events); n < 54 || n > 126 {
		t.Fatalf("%d events for an expected 90", n)
	}
	// The burst phase must offer a higher rate than the warm phase.
	rates := map[string]int{}
	for _, e := range tr.Events {
		rates[e.Phase]++
	}
	warm := float64(rates["warm"]) / 5
	burst := float64(rates["burst"]) / 2
	if burst <= warm*2 {
		t.Fatalf("burst rate %.1f/s not clearly above warm %.1f/s", burst, warm)
	}
}

// TestZipfSkew: with a strong skew the hottest entry dominates; with zero
// skew popularity is near-uniform. This guards the popularity weighting, the
// dimension that makes cache-like locality real in replay.
func TestZipfSkew(t *testing.T) {
	spec := testSpec()
	spec.Phases = []Phase{{Name: "steady", DurationSeconds: 400, Rate: 10}}
	spec.Skew = 2.0
	tr, err := GenTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, spec.Datasets)
	for _, e := range tr.Events {
		counts[e.Entry]++
	}
	total := len(tr.Events)
	// Zipf s=2 over 8 entries gives entry 0 a ~0.83/1.34 ≈ 62% share.
	share0 := float64(counts[0]) / float64(total)
	if share0 < 0.5 || share0 > 0.75 {
		t.Fatalf("skew=2: hottest entry share = %.3f, want ≈ 0.62", share0)
	}
	if counts[0] <= counts[spec.Datasets-1]*4 {
		t.Fatalf("skew=2: head %d not clearly above tail %d", counts[0], counts[spec.Datasets-1])
	}

	spec.Skew = 0
	tr, err = GenTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts = make([]int, spec.Datasets)
	for _, e := range tr.Events {
		counts[e.Entry]++
	}
	want := float64(len(tr.Events)) / float64(spec.Datasets)
	for j, c := range counts {
		if math.Abs(float64(c)-want) > want*0.35 {
			t.Fatalf("skew=0: entry %d drew %d of an expected %.0f (not uniform)", j, c, want)
		}
	}
}

// TestUniformArrivals: the uniform model spaces arrivals exactly 1/rate
// apart within a steady phase.
func TestUniformArrivals(t *testing.T) {
	spec := testSpec()
	spec.Arrivals = ArrivalsUniform
	spec.Phases = []Phase{{Name: "steady", DurationSeconds: 3, Rate: 10}}
	tr, err := GenTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 29 { // arrivals at 0.1s .. 2.9s
		t.Fatalf("%d events, want 29", len(tr.Events))
	}
	for i := 1; i < len(tr.Events); i++ {
		gap := (tr.Events[i].At - tr.Events[i-1].At).Seconds()
		if math.Abs(gap-0.1) > 1e-6 {
			t.Fatalf("gap %d = %vs, want 0.1s", i, gap)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	broken := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Phases = nil },
		func(s *Spec) { s.Phases[0].DurationSeconds = 0 },
		func(s *Spec) { s.Phases[0].Rate, s.Phases[0].RateEnd = 0, 0 },
		func(s *Spec) { s.Phases[0].Rate = -1 },
		func(s *Spec) { s.Arrivals = "bursty" },
		func(s *Spec) { s.Datasets = 0 },
		func(s *Spec) { s.Skew = -0.5 },
		func(s *Spec) { s.Sizes = nil },
		func(s *Spec) { s.Sizes[0].Samples = 0 },
		func(s *Spec) { s.Sizes[0].Weight, s.Sizes[1].Weight = 0, 0 },
		func(s *Spec) { s.NoiseMix[0].Rate = 1 },
		func(s *Spec) { s.NoiseMix[0].Kind = "gaussian" },
		func(s *Spec) { s.NoiseMix[0].Weight = -1 },
		func(s *Spec) { s.Fault.FailRate = 1.5 },
		func(s *Spec) { s.Fault.PanicRate = -0.1 },
		func(s *Spec) { s.Fault.SlowLatencyMS = -5 },
		func(s *Spec) { s.Policy.TaskTimeoutSeconds = -1 },
		func(s *Spec) { s.Policy.QueueDepth = -4 },
		func(s *Spec) { s.Policy.MaxQueueWaitMS = -10 },
		func(s *Spec) { s.Brownout = true },                               // no bounded admission
		func(s *Spec) { s.Brownout, s.Policy.QueueDepth = true, 8 },       // no wait budget
		func(s *Spec) { s.Brownout, s.Policy.MaxQueueWaitMS = true, 100 }, // no queue bound
		func(s *Spec) { s.SLO.MaxP99TaskSeconds = -1 },
		func(s *Spec) { s.SLO.MinCompletedRatio = 2 },
		func(s *Spec) { s.SLO.MinTierF1 = map[string]float64{"": 0.5} },
	}
	for i, mutate := range broken {
		spec := testSpec()
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// A spec carrying the full overload-control surface must validate: bounded
	// admission with a wait budget, the brownout ladder, and shed-aware SLOs.
	full := testSpec()
	full.Policy = PolicySpec{TaskTimeoutSeconds: 2, QueueDepth: 32, MaxQueueWaitMS: 200}
	full.Brownout = true
	full.SLO = SLO{
		MaxP99TaskSeconds: 1, MinCompletedRatio: 1,
		MaxShedFraction: floatp(0.3), MaxAbandoned: intp(0),
		MinTierF1: map[string]float64{"full": 0.9, "ann": 0.8},
	}
	if err := full.Validate(); err != nil {
		t.Errorf("overload-control spec rejected: %v", err)
	}
}

// TestSpecConversions pins the spec's unit conversions into the typed
// configs the stack builder takes: seconds and milliseconds become
// durations, and nothing the builder owns (the fallback) is set.
func TestSpecConversions(t *testing.T) {
	p := PolicySpec{
		TaskTimeoutSeconds: 1.5, Fallback: true, QueueDepth: 4, MaxQueueWaitMS: 30,
	}
	wantPolicy := lake.Policy{
		TaskTimeout: 1500 * time.Millisecond,
		Admission:   lake.AdmissionConfig{QueueDepth: 4, MaxQueueWait: 30 * time.Millisecond},
	}
	if got := p.Policy(); !reflect.DeepEqual(got, wantPolicy) {
		t.Errorf("Policy() = %+v, want %+v", got, wantPolicy)
	}
	f := FaultSpec{FailRate: 0.1, PanicRate: 0.2, SlowRate: 0.3, SlowLatencyMS: 2.5, CorruptRate: 0.4, Seed: 9}
	wantFault := fault.Config{
		Seed: 9, FailRate: 0.1, PanicRate: 0.2, SlowRate: 0.3,
		Latency: 2500 * time.Microsecond, CorruptRate: 0.4,
	}
	if got := f.Config(); got != wantFault {
		t.Errorf("Config() = %+v, want %+v", got, wantFault)
	}
}
