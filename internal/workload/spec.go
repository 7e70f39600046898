// Package workload is the traffic generator and latency-SLO harness for the
// lake serving stack: declarative workload specs (arrival rate phases with
// ramps and bursts, Zipf-skewed dataset popularity, dataset-size and
// noise-rate mixes), deterministic seed-driven trace generation, replay
// against a live lake.Service, and SLO evaluation over the latency
// histograms the service already exports through internal/obs.
//
// The shape of the API follows ReqBench's Workload (gen_trace → play):
// generation and replay are separate so a trace can be inspected, hashed and
// pinned by tests before anything runs, and the same trace replays
// identically at any worker count. The noise-rate mix makes load scenarios
// vary detection difficulty — not just arrival rate — as the noisy-label
// benchmarking literature prescribes: a burst of high-noise datasets costs
// more per task than the same burst of clean ones.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"enld/internal/fault"
	"enld/internal/lake"
)

// Phase is one segment of the arrival schedule. Rate is the arrival rate in
// requests per second at the start of the phase; RateEnd, when non-zero,
// ramps the instantaneous rate linearly toward it across the phase (a burst
// is simply a short phase at a high rate).
type Phase struct {
	Name            string  `json:"name"`
	DurationSeconds float64 `json:"duration_seconds"`
	Rate            float64 `json:"rate"`
	RateEnd         float64 `json:"rate_end,omitempty"`
}

// SizeClass is one weighted entry of the dataset-size mix.
type SizeClass struct {
	Samples int     `json:"samples"`
	Weight  float64 `json:"weight"`
}

// NoiseClass is one weighted entry of the noise mix: the label-noise rate
// and corruption model applied to catalog datasets assigned this class.
// Kind is "pair" or "symmetric" (empty defaults to pair); Rate 0 means the
// dataset arrives clean.
type NoiseClass struct {
	Rate   float64 `json:"rate"`
	Kind   string  `json:"kind,omitempty"`
	Weight float64 `json:"weight"`
}

// FaultSpec configures deterministic chaos on the detector during replay
// (internal/fault), so load scenarios can measure serving behaviour under
// failure, not just under traffic.
type FaultSpec struct {
	FailRate      float64 `json:"fail_rate,omitempty"`
	PanicRate     float64 `json:"panic_rate,omitempty"`
	SlowRate      float64 `json:"slow_rate,omitempty"`
	SlowLatencyMS float64 `json:"slow_latency_ms,omitempty"`
	CorruptRate   float64 `json:"corrupt_rate,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
}

// PolicySpec configures the service's resilience policy (lake.Policy) for
// the scenario.
type PolicySpec struct {
	TaskTimeoutSeconds float64 `json:"task_timeout_seconds,omitempty"`
	Fallback           bool    `json:"fallback,omitempty"`
	// Admission bounds the service's queue and enables deadline-aware load
	// shedding (lake.AdmissionConfig): QueueDepth 0 keeps the legacy
	// unbounded backpressure.
	QueueDepth     int     `json:"queue_depth,omitempty"`
	MaxQueueWaitMS float64 `json:"max_queue_wait_ms,omitempty"`
}

// Config converts the spec to the fault injector's config.
func (f FaultSpec) Config() fault.Config {
	return fault.Config{
		Seed:        f.Seed,
		FailRate:    f.FailRate,
		PanicRate:   f.PanicRate,
		SlowRate:    f.SlowRate,
		Latency:     time.Duration(f.SlowLatencyMS * float64(time.Millisecond)),
		CorruptRate: f.CorruptRate,
	}
}

// Policy converts the spec to the service's resilience policy. The fallback
// detector belongs to the system under test, which fills it in.
func (p PolicySpec) Policy() lake.Policy {
	return lake.Policy{
		TaskTimeout: time.Duration(p.TaskTimeoutSeconds * float64(time.Second)),
		Admission:   p.Admission(),
	}
}

// Admission converts the spec's admission fields to the service config.
func (p PolicySpec) Admission() lake.AdmissionConfig {
	return lake.AdmissionConfig{
		QueueDepth:   p.QueueDepth,
		MaxQueueWait: time.Duration(p.MaxQueueWaitMS * float64(time.Millisecond)),
	}
}

// Spec is one declarative load scenario. Everything that shapes the
// workload or the system under test lives here, so a scenario file fully
// determines a run; environment concerns (storage directory, output paths,
// time compression) stay on the loadgen command line.
type Spec struct {
	Name string `json:"name"`
	// Seed drives trace generation and catalog materialization; a fixed
	// seed reproduces the trace bit-for-bit.
	Seed uint64 `json:"seed"`

	// System under test.
	Preset      string  `json:"preset"`                 // emnist | cifar100 | tinyimagenet
	Eta         float64 `json:"eta"`                    // platform-inventory noise rate
	Scale       float64 `json:"scale,omitempty"`        // dataset size factor (0 = 1.0)
	Method      string  `json:"method"`                 // detector under load
	Workers     int     `json:"workers"`                // concurrent service workers
	TaskWorkers int     `json:"task_workers,omitempty"` // no effect; ROADMAP 1(b) deletes it in the next benchmark change

	// Traffic shape.
	Phases []Phase `json:"phases"`
	// Arrivals selects the inter-arrival model: "poisson" (exponential
	// gaps, the default) or "uniform" (evenly spaced).
	Arrivals string `json:"arrivals,omitempty"`

	// Catalog: the population of distinct datasets requests draw from.
	// Popularity is Zipf-distributed with exponent Skew (0 = uniform):
	// entry j is picked proportionally to 1/(j+1)^skew, so low-numbered
	// entries are hot and the tail is cold.
	Datasets int          `json:"datasets"`
	Skew     float64      `json:"skew,omitempty"`
	Sizes    []SizeClass  `json:"sizes"`
	NoiseMix []NoiseClass `json:"noise_mix"`

	Fault  FaultSpec  `json:"fault,omitempty"`
	Policy PolicySpec `json:"policy,omitempty"`
	// Brownout installs the degradation ladder on the service under test:
	// admission then serves each task at full ENLD or at the fallback rung
	// by its predicted queue wait. It needs policy.queue_depth and
	// policy.max_queue_wait_ms.
	Brownout bool `json:"brownout,omitempty"`
	SLO      SLO  `json:"slo,omitempty"`
}

// LoadSpec reads and validates one scenario spec file. A key the Spec does
// not know is an error, so a misspelt or retired setting cannot pass as
// "not set".
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	var s Spec
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("workload: parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("workload: parsing %s: data after the spec object", path)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("workload: %s: %w", path, err)
	}
	return s, nil
}

// Validate rejects specs that cannot generate a sound trace.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario has no name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s has no phases", s.Name)
	}
	for i, p := range s.Phases {
		if p.DurationSeconds <= 0 {
			return fmt.Errorf("scenario %s phase %d: non-positive duration", s.Name, i)
		}
		if p.Rate < 0 || p.RateEnd < 0 {
			return fmt.Errorf("scenario %s phase %d: negative rate", s.Name, i)
		}
		if p.Rate == 0 && p.RateEnd == 0 {
			return fmt.Errorf("scenario %s phase %d: zero rate (drop the phase instead)", s.Name, i)
		}
	}
	switch s.Arrivals {
	case "", ArrivalsPoisson, ArrivalsUniform:
	default:
		return fmt.Errorf("scenario %s: unknown arrivals model %q", s.Name, s.Arrivals)
	}
	if s.Datasets < 1 {
		return fmt.Errorf("scenario %s: catalog needs at least one dataset", s.Name)
	}
	if s.Skew < 0 {
		return fmt.Errorf("scenario %s: negative skew", s.Name)
	}
	if err := validateWeights(len(s.Sizes), func(i int) float64 { return s.Sizes[i].Weight }); err != nil {
		return fmt.Errorf("scenario %s sizes: %w", s.Name, err)
	}
	for i, c := range s.Sizes {
		if c.Samples < 1 {
			return fmt.Errorf("scenario %s sizes[%d]: non-positive sample count", s.Name, i)
		}
	}
	if err := validateWeights(len(s.NoiseMix), func(i int) float64 { return s.NoiseMix[i].Weight }); err != nil {
		return fmt.Errorf("scenario %s noise_mix: %w", s.Name, err)
	}
	for i, c := range s.NoiseMix {
		if c.Rate < 0 || c.Rate >= 1 {
			return fmt.Errorf("scenario %s noise_mix[%d]: rate %v outside [0, 1)", s.Name, i, c.Rate)
		}
		switch c.Kind {
		case "", NoisePair, NoiseSymmetric:
		default:
			return fmt.Errorf("scenario %s noise_mix[%d]: unknown kind %q", s.Name, i, c.Kind)
		}
	}
	if err := s.Fault.validate(); err != nil {
		return fmt.Errorf("scenario %s fault: %w", s.Name, err)
	}
	if err := s.Policy.validate(); err != nil {
		return fmt.Errorf("scenario %s policy: %w", s.Name, err)
	}
	if s.Brownout {
		if err := s.Policy.Admission().ValidateBrownout(); err != nil {
			return fmt.Errorf("scenario %s brownout: %w", s.Name, err)
		}
	}
	if err := s.SLO.validate(); err != nil {
		return fmt.Errorf("scenario %s slo: %w", s.Name, err)
	}
	return nil
}

// validate rejects fault rates outside [0, 1] and negative latencies.
func (f FaultSpec) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"fail_rate", f.FailRate}, {"panic_rate", f.PanicRate},
		{"slow_rate", f.SlowRate}, {"corrupt_rate", f.CorruptRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("%s %v outside [0, 1]", r.name, r.v)
		}
	}
	if f.SlowLatencyMS < 0 {
		return fmt.Errorf("negative slow_latency_ms %v", f.SlowLatencyMS)
	}
	return nil
}

// validate rejects resilience-policy settings the service would refuse.
func (p PolicySpec) validate() error {
	if p.TaskTimeoutSeconds < 0 || p.MaxQueueWaitMS < 0 {
		return fmt.Errorf("negative policy field: %+v", p)
	}
	return p.Admission().Validate()
}

// Arrival models.
const (
	ArrivalsPoisson = "poisson"
	ArrivalsUniform = "uniform"
)

// Noise kinds of the catalog mix.
const (
	NoisePair      = "pair"
	NoiseSymmetric = "symmetric"
)

func validateWeights(n int, weight func(int) float64) error {
	if n == 0 {
		return fmt.Errorf("empty mix")
	}
	total := 0.0
	for i := 0; i < n; i++ {
		w := weight(i)
		if w < 0 {
			return fmt.Errorf("negative weight at %d", i)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("weights sum to zero")
	}
	return nil
}

// Duration returns the total scheduled length of the scenario.
func (s Spec) Duration() time.Duration {
	total := 0.0
	for _, p := range s.Phases {
		total += p.DurationSeconds
	}
	return time.Duration(total * float64(time.Second))
}
