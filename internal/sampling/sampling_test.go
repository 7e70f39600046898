package sampling

import (
	"math"
	"testing"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/noise"
)

// makeRequest builds a request with a pool of two well-separated label
// clusters: label 0 near the origin, label 1 near (10, 10). One ambiguous
// sample sits on each cluster.
func makeRequest(k int) *Request {
	pool := dataset.Set{}
	var feats [][]float64
	var confs, ents []float64
	var preds []int
	rng := mat.NewRNG(42)
	for i := 0; i < 10; i++ {
		pool = append(pool, dataset.Sample{ID: i, X: []float64{0, 0}, Observed: 0, True: 0})
		feats = append(feats, []float64{rng.Norm() * 0.1, rng.Norm() * 0.1})
		confs = append(confs, 0.5+float64(i)/100)
		ents = append(ents, 1.0-float64(i)/100)
		preds = append(preds, 0)
	}
	for i := 10; i < 20; i++ {
		pool = append(pool, dataset.Sample{ID: i, X: []float64{10, 10}, Observed: 1, True: 1})
		feats = append(feats, []float64{10 + rng.Norm()*0.1, 10 + rng.Norm()*0.1})
		confs = append(confs, 0.9+float64(i)/1000)
		ents = append(ents, 0.1+float64(i)/1000)
		preds = append(preds, 1)
	}
	amb := dataset.Set{
		{ID: 100, X: []float64{0, 0}, Observed: 0, True: 0},
		{ID: 101, X: []float64{10, 10}, Observed: 1, True: 1},
	}
	ambFeats := [][]float64{{0.05, 0.05}, {10.05, 10.05}}
	cond := noise.Conditional{{1, 0}, {0, 1}} // labels are reliable
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
		RNG:               mat.NewRNG(7),
	}
}

func TestRequestValidate(t *testing.T) {
	r := makeRequest(3)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := makeRequest(0)
	if err := bad.Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	bad = makeRequest(2)
	bad.RNG = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil rng accepted")
	}
	bad = makeRequest(2)
	bad.PoolFeatures = bad.PoolFeatures[:1]
	if err := bad.Validate(); err == nil {
		t.Error("mismatched features accepted")
	}
}

func TestContrastiveSelectsNearestOfEstimatedLabel(t *testing.T) {
	r := makeRequest(3)
	var meter cost.Meter
	r.Meter = &meter
	got, err := Contrastive{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	// 2 ambiguous × k=3.
	if len(got) != 6 {
		t.Fatalf("selected %d samples", len(got))
	}
	// With the identity conditional, ambiguous sample near cluster 0 must
	// draw label-0 pool samples, and near cluster 1 label-1 samples.
	for i, smp := range got {
		wantLabel := 0
		if i >= 3 {
			wantLabel = 1
		}
		if smp.Observed != wantLabel {
			t.Fatalf("selection %d has label %d, want %d", i, smp.Observed, wantLabel)
		}
	}
	if meter.KNNQueries != 2 {
		t.Fatalf("KNN queries = %d", meter.KNNQueries)
	}
}

func TestContrastiveNearestByFeature(t *testing.T) {
	r := makeRequest(1)
	got, err := Contrastive{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("selected %d", len(got))
	}
	// Each selected sample must be the feature-space nearest of its label.
	for which, amb := range r.AmbiguousFeatures {
		best, bestD := -1, math.Inf(1)
		for i := range r.Pool {
			if r.Pool[i].Observed != got[which].Observed {
				continue
			}
			if d := mat.SqDist(amb, r.PoolFeatures[i]); d < bestD {
				best, bestD = i, d
			}
		}
		if got[which].ID != r.Pool[best].ID {
			t.Fatalf("ambiguous %d: got ID %d, nearest is %d", which, got[which].ID, r.Pool[best].ID)
		}
	}
}

func TestContrastiveEmptyInputs(t *testing.T) {
	r := makeRequest(2)
	r.Ambiguous, r.AmbiguousFeatures = nil, nil
	got, err := Contrastive{}.Select(r)
	if err != nil || got != nil {
		t.Fatalf("empty ambiguous: %v, %v", got, err)
	}
	r = makeRequest(2)
	r.Pool, r.PoolFeatures, r.PoolConfidences, r.PoolEntropies, r.PoolPredicted =
		nil, nil, nil, nil, nil
	got, err = Contrastive{}.Select(r)
	if err != nil || got != nil {
		t.Fatalf("empty pool: %v, %v", got, err)
	}
}

func TestContrastiveSameLabelAblation(t *testing.T) {
	r := makeRequest(2)
	// Flip the conditional so estimated labels would cross clusters; the
	// SameLabel variant must ignore it.
	r.Cond = noise.Conditional{{0, 1}, {1, 0}}
	got, err := Contrastive{SameLabel: true}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, smp := range got {
		wantLabel := 0
		if i >= 2 {
			wantLabel = 1
		}
		if smp.Observed != wantLabel {
			t.Fatalf("SameLabel selection %d has label %d", i, smp.Observed)
		}
	}
	// The probabilistic variant with the flipped conditional must select the
	// *other* cluster.
	got, err = Contrastive{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, smp := range got {
		wantLabel := 1
		if i >= 2 {
			wantLabel = 0
		}
		if smp.Observed != wantLabel {
			t.Fatalf("flipped-cond selection %d has label %d", i, smp.Observed)
		}
	}
}

func TestRandomBudgetAndMembership(t *testing.T) {
	r := makeRequest(3)
	got, err := Random{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("selected %d", len(got))
	}
	seen := map[int]bool{}
	for _, smp := range got {
		if smp.ID < 0 || smp.ID >= 20 {
			t.Fatalf("selected non-pool sample %d", smp.ID)
		}
		if seen[smp.ID] {
			t.Fatalf("random selected %d twice", smp.ID)
		}
		seen[smp.ID] = true
	}
}

func TestRandomBudgetCappedAtPool(t *testing.T) {
	r := makeRequest(100) // 2*100 > pool of 20
	got, err := Random{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("selected %d, want full pool", len(got))
	}
}

func TestHighestConfidence(t *testing.T) {
	r := makeRequest(1) // budget 2
	got, err := HighestConfidence{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("selected %d", len(got))
	}
	// Highest confidences are the last pool entries (0.9 + i/1000).
	if got[0].ID != 19 || got[1].ID != 18 {
		t.Fatalf("HC selected IDs %d, %d", got[0].ID, got[1].ID)
	}
}

func TestLeastConfidence(t *testing.T) {
	r := makeRequest(1)
	got, err := LeastConfidence{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("LC selected IDs %d, %d", got[0].ID, got[1].ID)
	}
}

func TestEntropyPolicy(t *testing.T) {
	r := makeRequest(1)
	got, err := Entropy{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	// Highest entropies are pool entries 0 and 1 (1.0 - i/100).
	if got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("Entropy selected IDs %d, %d", got[0].ID, got[1].ID)
	}
}

func TestPseudoRelabels(t *testing.T) {
	r := makeRequest(1)
	// Make the model disagree with observed labels for the top-confidence
	// samples.
	r.PoolPredicted[19] = 0
	r.PoolPredicted[18] = 0
	got, err := Pseudo{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range got {
		if smp.Observed != 0 {
			t.Fatalf("pseudo label not applied: %+v", smp)
		}
	}
	// The original pool must be untouched.
	if r.Pool[19].Observed != 1 {
		t.Fatal("Pseudo mutated the pool")
	}
}

func TestAllStrategiesRunAndAreNamed(t *testing.T) {
	names := map[string]bool{}
	for _, s := range All() {
		if s.Name() == "" {
			t.Fatal("unnamed strategy")
		}
		if names[s.Name()] {
			t.Fatalf("duplicate name %q", s.Name())
		}
		names[s.Name()] = true
		r := makeRequest(2)
		got, err := s.Select(r)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(got) == 0 {
			t.Fatalf("%s selected nothing", s.Name())
		}
	}
	if !names["contrastive"] {
		t.Fatal("contrastive strategy missing from All()")
	}
}

func TestStrategiesValidateRequests(t *testing.T) {
	for _, s := range All() {
		r := makeRequest(2)
		r.PoolEntropies = nil
		if _, err := s.Select(r); err == nil {
			t.Errorf("%s accepted invalid request", s.Name())
		}
	}
}

func TestContrastiveBruteMatchesKDTree(t *testing.T) {
	// The brute-force ablation must select the exact same samples when fed
	// the same RNG stream (both draw identical labels, then exact k-NN).
	a, err := Contrastive{}.Select(makeRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Contrastive{Brute: true}.Select(makeRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	// Compare as label multisets per rank group (ties in distance may order
	// differently between implementations, but labels and distances agree).
	for i := range a {
		if a[i].Observed != b[i].Observed {
			t.Fatalf("selection %d differs: label %d vs %d", i, a[i].Observed, b[i].Observed)
		}
	}
}

func TestContrastiveNames(t *testing.T) {
	if (Contrastive{}).Name() != "contrastive" {
		t.Error("default name")
	}
	if (Contrastive{SameLabel: true}).Name() != "contrastive-samelabel" {
		t.Error("samelabel name")
	}
	if (Contrastive{Brute: true}).Name() != "contrastive-brute" {
		t.Error("brute name")
	}
}

func TestContrastiveSkipsMissingLabelPool(t *testing.T) {
	r := makeRequest(2)
	for i := range r.Pool {
		if r.Pool[i].Observed == 1 {
			r.Pool[i].Observed = dataset.Missing
		}
	}
	got, err := Contrastive{}.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range got {
		if smp.Observed == dataset.Missing {
			t.Fatal("selected a missing-label sample")
		}
	}
}
