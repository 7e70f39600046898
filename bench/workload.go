package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"enld/internal/mat"
	"enld/internal/workload"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// workloadNames is the order the full set runs in.
var workloadNames = []string{"detect-batch", "lake-steady", "cluster-steady", "lake-overload", "ingest-heavy"}

// Workload kinds.
const (
	kindDetectBatch = "detect-batch" // direct Detect calls over the workbench shards
	kindServe       = "serve"        // replay into a lake.Service or a cluster
	kindIngest      = "ingest"       // serve, then the storage layer's read side
)

// Workload is one benchmark workload file: a workload.Spec (system under
// test, rate, catalog mixes, admission policy) plus what the harness needs
// on top. Spec.Seed is the platform seed and is fixed in the file; the
// command line's -seed drives only the trace, the catalog contents and the
// catalog noise. Spec.Phases[0].Rate is the arrival rate of an open loop and
// the nominal task rate of a closed one (tasks = rate × seconds, so a closed
// loop's work depends on -seconds and not on how fast the code is).
type Workload struct {
	workload.Spec
	Why  string `json:"why"`
	Kind string `json:"kind"`
	// Loop is "open" (tasks sent on schedule, latency from due time) or
	// "closed" (next task offered when the system takes the previous one).
	Loop string `json:"loop"`
	// LimitSeconds is the latency limit behind within_limit_frac.
	LimitSeconds float64 `json:"limit_seconds"`
	// ClusterShards > 0 replays through a coordinator over that many HTTP
	// loopback shards (Workers is then per shard).
	ClusterShards int `json:"cluster_shards,omitempty"`
	// F1Floor fails the run when pooled detection F1 drops below it.
	F1Floor float64 `json:"f1_floor"`
	// MayShed marks the one workload where shedding is expected; elsewhere
	// a single shed task fails the run.
	MayShed bool `json:"may_shed,omitempty"`
	// MeasureTiers adds, on the traced run, one pass of every brownout
	// rung over the catalog.
	MeasureTiers bool `json:"measure_tiers,omitempty"`
}

func loadWorkload(name string) (*Workload, error) {
	raw, err := workloadFiles.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	var w Workload
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if err := w.validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return &w, nil
}

func (w *Workload) validate() error {
	switch w.Kind {
	case kindDetectBatch:
		if w.Loop != "closed" {
			return fmt.Errorf("detect-batch is a closed loop")
		}
		if len(w.Phases) != 1 || w.Phases[0].Rate <= 0 {
			return fmt.Errorf("need one phase with the nominal task rate")
		}
	case kindServe, kindIngest:
		if err := w.Spec.Validate(); err != nil {
			return err
		}
		if len(w.Phases) != 1 {
			return fmt.Errorf("need exactly one phase, have %d", len(w.Phases))
		}
		if w.Loop != "open" && w.Loop != "closed" {
			return fmt.Errorf("loop %q is neither open nor closed", w.Loop)
		}
	default:
		return fmt.Errorf("unknown kind %q", w.Kind)
	}
	if w.Method != "enld" && w.Method != "default" {
		return fmt.Errorf("method %q: the harness drives enld and default", w.Method)
	}
	if w.LimitSeconds <= 0 || w.Why == "" {
		return fmt.Errorf("limit_seconds and why are required")
	}
	return nil
}

// tasks is how many tasks a run of the given length offers: at least one,
// so that a run far shorter than the workload is written for still runs.
func (w *Workload) tasks(seconds float64) int {
	return max(1, int(w.Phases[0].Rate*seconds))
}

// traceSalt decorrelates the trace's RNG stream from the catalog's
// (workload.Materialize salts its own from Trace.Seed).
const traceSalt = 0x6a09e667f3bcc908

// genTrace builds the workload's trace for seed and run length.
//
// It does not call workload.GenTrace: that draws every catalog entry's size
// and noise class, every inter-arrival gap and every popularity pick
// independently, so with 24 Zipf-weighted entries the offered work moved by
// ±20 % from seed to seed — more than any bound this benchmark sets. Here
// the marginals are the same (exponential gaps, Zipf popularity, the size
// and noise mixes) but each is laid out exactly and only its order is
// random: catalog entry j takes sizes[j mod len] and noise_mix[j mod len]
// (weights are ignored — repeat a class to weight it), the n entry picks are
// a shuffle of the multiset with exactly n·p_j copies of entry j, and the n
// gaps are a shuffle of the n exponential quantiles scaled to fill the run.
// Every seed therefore offers the same work at the same mean rate with the
// same burstiness distribution; what the seed changes is the order, which
// samples each dataset holds and which labels are corrupted.
func genTrace(w *Workload, seed uint64, seconds float64) *workload.Trace {
	n := w.tasks(seconds)
	t := &workload.Trace{
		Scenario: "bench",
		Seed:     seed,
		Duration: time.Duration(seconds * float64(time.Second)),
		Catalog:  make([]workload.EntryMeta, w.Datasets),
	}
	for j := range t.Catalog {
		size := w.Sizes[j%len(w.Sizes)]
		nc := w.NoiseMix[j%len(w.NoiseMix)]
		kind := nc.Kind
		if kind == "" {
			kind = workload.NoisePair
		}
		if nc.Rate == 0 {
			kind = "none"
		}
		t.Catalog[j] = workload.EntryMeta{Samples: size.Samples, NoiseRate: nc.Rate, NoiseKind: kind}
	}

	rng := mat.NewRNG(seed ^ traceSalt)
	picks := zipfMultiset(w.Datasets, w.Skew, n)
	pickOrder := rng.Perm(n)
	gapOrder := rng.Perm(n)

	// Exponential quantiles at the stratum midpoints, scaled so the last
	// arrival lands one mean gap before the end of the run.
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = -math.Log(1 - (float64(i)+0.5)/float64(n))
		total += gaps[i]
	}
	scale := seconds * float64(n) / float64(n+1) / total

	at := 0.0
	phase := w.Phases[0].Name
	t.Events = make([]workload.Event, n)
	for i := range t.Events {
		if w.Loop == "open" {
			at += gaps[gapOrder[i]] * scale
		}
		t.Events[i] = workload.Event{
			Task:  i,
			At:    time.Duration(at * float64(time.Second)),
			Entry: picks[pickOrder[i]],
			Phase: phase,
		}
	}
	return t
}

// zipfMultiset returns n entry indexes in which entry j appears n·p_j times,
// p_j ∝ 1/(j+1)^skew, rounded by largest remainder so the counts sum to n.
func zipfMultiset(entries int, skew float64, n int) []int {
	weights := make([]float64, entries)
	total := 0.0
	for j := range weights {
		weights[j] = math.Pow(float64(j+1), -skew)
		total += weights[j]
	}
	counts := make([]int, entries)
	order := make([]int, entries)
	rem := make([]float64, entries)
	assigned := 0
	for j := range weights {
		exact := float64(n) * weights[j] / total
		counts[j] = int(exact)
		rem[j] = exact - float64(counts[j])
		order[j] = j
		assigned += counts[j]
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; assigned < n; i++ {
		counts[order[i%entries]]++
		assigned++
	}
	out := make([]int, 0, n)
	for j, c := range counts {
		for ; c > 0; c-- {
			out = append(out, j)
		}
	}
	return out
}
