package sampling

import (
	"testing"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/noise"
)

// bigRequest builds a request with three label clusters, 33 ambiguous
// samples and a genuinely noisy conditional, so the label pre-draws are
// load-bearing.
func bigRequest(k int) *Request {
	rng := mat.NewRNG(90)
	centers := [][]float64{{0, 0}, {8, 0}, {0, 8}}
	pool := dataset.Set{}
	var feats [][]float64
	var confs, ents []float64
	var preds []int
	id := 0
	for label, c := range centers {
		for i := 0; i < 40; i++ {
			pool = append(pool, dataset.Sample{ID: id, X: c, Observed: label, True: label})
			feats = append(feats, []float64{c[0] + rng.Norm(), c[1] + rng.Norm()})
			confs = append(confs, rng.Float64())
			ents = append(ents, rng.Float64())
			preds = append(preds, label)
			id++
		}
	}
	amb := dataset.Set{}
	var ambFeats [][]float64
	for i := 0; i < 33; i++ {
		label := i % 3
		c := centers[label]
		amb = append(amb, dataset.Sample{ID: 1000 + i, X: c, Observed: label, True: label})
		ambFeats = append(ambFeats, []float64{c[0] + rng.Norm(), c[1] + rng.Norm()})
	}
	cond := noise.Conditional{
		{0.8, 0.1, 0.1},
		{0.1, 0.8, 0.1},
		{0.1, 0.1, 0.8},
	}
	return &Request{
		Ambiguous:         amb,
		AmbiguousFeatures: ambFeats,
		Pool:              pool,
		PoolFeatures:      feats,
		PoolConfidences:   confs,
		PoolEntropies:     ents,
		PoolPredicted:     preds,
		Cond:              cond,
		K:                 k,
		RNG:               mat.NewRNG(91),
	}
}

// sameSelection asserts two selections hold the same samples in the same
// order.
func sameSelection(t *testing.T, label string, got, want dataset.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d selections, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Observed != want[i].Observed {
			t.Fatalf("%s: selection %d is sample %d, want %d", label, i, got[i].ID, want[i].ID)
		}
	}
}

// TestContrastiveParallelIdentical is the sampling differential test: on a
// noisy request, every Contrastive variant's selection (IDs, order) and
// cost-meter counts are reproducible from the seed, and the KD-tree index
// selects exactly what the brute-force scan selects.
func TestContrastiveParallelIdentical(t *testing.T) {
	run := func(c Contrastive) (dataset.Set, cost.Meter) {
		r := bigRequest(3)
		var m cost.Meter
		r.Meter = &m
		got, err := c.Select(r)
		if err != nil {
			t.Fatal(err)
		}
		return got, m
	}
	for _, c := range []Contrastive{{}, {SameLabel: true}, {Brute: true}} {
		first, firstMeter := run(c)
		if len(first) == 0 {
			t.Fatalf("%s: selected nothing", c.Name())
		}
		again, againMeter := run(c)
		sameSelection(t, c.Name()+" rerun", again, first)
		if againMeter != firstMeter {
			t.Fatalf("%s: rerun meter %+v, want %+v", c.Name(), againMeter, firstMeter)
		}
	}
	kd, kdMeter := run(Contrastive{})
	brute, bruteMeter := run(Contrastive{Brute: true})
	sameSelection(t, "kd-tree vs brute", kd, brute)
	if kdMeter != bruteMeter {
		t.Fatalf("kd-tree meter %+v, brute %+v", kdMeter, bruteMeter)
	}
}

// TestContrastiveParallelEmptyAmbiguous pins the no-op edge case.
func TestContrastiveParallelEmptyAmbiguous(t *testing.T) {
	r := bigRequest(2)
	r.Ambiguous = nil
	r.AmbiguousFeatures = nil
	got, err := Contrastive{}.Select(r)
	if err != nil || got != nil {
		t.Fatalf("%v, %v", got, err)
	}
}
