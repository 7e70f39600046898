package workload

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"enld/internal/mat"
)

// Event is one scheduled arrival: at offset At from replay start, submit the
// catalog dataset Entry as task Task.
type Event struct {
	Task  int           `json:"task"`
	At    time.Duration `json:"at_nanos"`
	Entry int           `json:"entry"`
	Phase string        `json:"phase"`
}

// EntryMeta describes one catalog dataset: its size and the noise applied to
// it, both drawn from the spec's mixes at generation time so the trace —
// not the replayer — fixes what every arrival looks like.
type EntryMeta struct {
	Samples   int     `json:"samples"`
	NoiseRate float64 `json:"noise_rate"`
	NoiseKind string  `json:"noise_kind"`
}

// Trace is a fully generated workload: the catalog assignment plus the
// timed event schedule. Generation is single-goroutine and seed-driven, so
// the same (spec, seed) always yields a byte-identical trace regardless of
// GOMAXPROCS or the replay worker count — the determinism contract the rest
// of the repository holds, extended to traffic.
type Trace struct {
	Scenario string        `json:"scenario"`
	Seed     uint64        `json:"seed"`
	Duration time.Duration `json:"duration_nanos"`
	Catalog  []EntryMeta   `json:"catalog"`
	Events   []Event       `json:"events"`
}

// traceSeedSalt decorrelates the trace RNG stream from every other consumer
// of the spec seed (platform setup, catalog materialization).
const traceSeedSalt = 0x9e3779b97f4a7c15

// GenTrace generates the trace for spec: catalog entries get sizes and
// noise classes by weighted draw, then each phase emits arrivals at its
// (possibly ramping) rate with Zipf-skewed entry popularity.
func GenTrace(spec Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := mat.NewRNG(spec.Seed ^ traceSeedSalt)
	t := &Trace{
		Scenario: spec.Name,
		Seed:     spec.Seed,
		Duration: spec.Duration(),
		Catalog:  make([]EntryMeta, spec.Datasets),
	}

	sizeCum := cumulativeWeights(len(spec.Sizes), func(i int) float64 { return spec.Sizes[i].Weight })
	noiseCum := cumulativeWeights(len(spec.NoiseMix), func(i int) float64 { return spec.NoiseMix[i].Weight })
	for j := range t.Catalog {
		size := spec.Sizes[pickCumulative(sizeCum, rng.Float64())]
		nc := spec.NoiseMix[pickCumulative(noiseCum, rng.Float64())]
		kind := nc.Kind
		if kind == "" {
			kind = NoisePair
		}
		if nc.Rate == 0 {
			kind = "none"
		}
		t.Catalog[j] = EntryMeta{Samples: size.Samples, NoiseRate: nc.Rate, NoiseKind: kind}
	}

	// Popularity: Zipf weights 1/(j+1)^skew over the catalog, drawn by
	// inverse-CDF so a single uniform variate decides each event's entry.
	zipfCum := cumulativeWeights(spec.Datasets, func(j int) float64 {
		return math.Pow(float64(j+1), -spec.Skew)
	})

	uniform := spec.Arrivals == ArrivalsUniform
	task := 0
	phaseStart := 0.0
	for _, p := range spec.Phases {
		// Walk the phase in time; the instantaneous rate interpolates
		// linearly from Rate to RateEnd (equal when not ramping). The next
		// gap is drawn at the current instantaneous rate — exact for steady
		// phases, a faithful discretization for ramps.
		rateEnd := p.RateEnd
		if rateEnd == 0 {
			rateEnd = p.Rate
		}
		elapsed := 0.0
		for {
			frac := elapsed / p.DurationSeconds
			rate := p.Rate + (rateEnd-p.Rate)*frac
			var gap float64
			if rate <= 0 {
				// A ramp touching zero contributes no further arrivals in
				// any window where the rate is zero; step forward 10ms to
				// find where it becomes positive again.
				gap = 0.01
			} else if uniform {
				gap = 1 / rate
			} else {
				// Exponential inter-arrival (Poisson process). 1-U avoids
				// log(0); the draw order is part of the determinism
				// contract, so nothing here may be reordered.
				gap = -math.Log(1-rng.Float64()) / rate
			}
			elapsed += gap
			if elapsed >= p.DurationSeconds {
				break
			}
			if rate <= 0 {
				continue
			}
			at := phaseStart + elapsed
			t.Events = append(t.Events, Event{
				Task:  task,
				At:    time.Duration(at * float64(time.Second)),
				Entry: pickCumulative(zipfCum, rng.Float64()),
				Phase: p.Name,
			})
			task++
		}
		phaseStart += p.DurationSeconds
	}
	if len(t.Events) == 0 {
		return nil, fmt.Errorf("workload: scenario %s generated an empty trace", spec.Name)
	}
	return t, nil
}

// cumulativeWeights normalizes the weights into a cumulative distribution.
func cumulativeWeights(n int, weight func(int) float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += weight(i)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // guard against rounding excluding the last class
	return cum
}

// pickCumulative returns the first index whose cumulative weight reaches u.
func pickCumulative(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// Encode renders the trace canonically: fixed-field JSON with no maps, so
// equal traces encode to equal bytes. The determinism test pins the FNV-1a
// hash of this encoding.
func (t *Trace) Encode() ([]byte, error) {
	return json.Marshal(t)
}

// Hash returns the FNV-1a 64-bit hash of the canonical encoding.
func (t *Trace) Hash() (uint64, error) {
	raw, err := t.Encode()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64(), nil
}
