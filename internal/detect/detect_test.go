package detect

import (
	"testing"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/nn"
)

func testModelAndSet(t *testing.T) (*nn.Network, dataset.Set) {
	t.Helper()
	model := nn.NewNetwork([]int{3, 5, 4}, mat.NewRNG(1))
	rng := mat.NewRNG(2)
	set := make(dataset.Set, 12)
	for i := range set {
		set[i] = dataset.Sample{
			ID:       i,
			X:        rng.NormVec(make([]float64, 3), 0, 1),
			Observed: i % 4,
			True:     i % 4,
		}
	}
	return model, set
}

func TestResultMarking(t *testing.T) {
	r := NewResult()
	r.MarkNoisy(1)
	r.MarkClean(2)
	if !r.Noisy[1] || !r.Clean[2] {
		t.Fatal("marks lost")
	}
	r.MarkClean(1)
	if r.Noisy[1] || !r.Clean[1] {
		t.Fatal("MarkClean did not override noisy")
	}
	r.MarkNoisy(2)
	if r.Clean[2] || !r.Noisy[2] {
		t.Fatal("MarkNoisy did not override clean")
	}
}

func TestScoreShapesAndConsistency(t *testing.T) {
	model, set := testModelAndSet(t)
	var meter cost.Meter
	s := Score(model, set, &meter)
	if len(s.Confidences) != len(set) || len(s.Features) != len(set) {
		t.Fatal("score lengths wrong")
	}
	for i, smp := range set {
		if got := model.Predict(smp.X); got != s.Predicted[i] {
			t.Fatalf("cached prediction %d != model %d", s.Predicted[i], got)
		}
		if s.MaxConf[i] != mat.Max(s.Confidences[i]) {
			t.Fatal("MaxConf inconsistent")
		}
		if len(s.Features[i]) != model.FeatureDim() {
			t.Fatal("feature length wrong")
		}
		if s.Entropy[i] < 0 {
			t.Fatal("negative entropy")
		}
	}
	if meter.ForwardPasses != int64(len(set)) {
		t.Fatalf("forward passes = %d", meter.ForwardPasses)
	}
	// nil meter must not panic.
	Score(model, set[:2], nil)
}

func TestAmbiguousAndAgreeing(t *testing.T) {
	set := dataset.Set{
		{ID: 0, Observed: 1},
		{ID: 1, Observed: 0},
		{ID: 2, Observed: dataset.Missing},
	}
	pred := []int{1, 1, 1}
	amb := Ambiguous(set, pred)
	if len(amb) != 2 || amb[0] != 1 || amb[1] != 2 {
		t.Fatalf("Ambiguous = %v", amb)
	}
	agr := Agreeing(set, pred)
	if len(agr) != 1 || agr[0] != 0 {
		t.Fatalf("Agreeing = %v", agr)
	}
	// Partition property: every index is in exactly one of the two.
	if len(amb)+len(agr) != len(set) {
		t.Fatal("ambiguous/agreeing do not partition")
	}
}

func TestRestrictToLabels(t *testing.T) {
	set := dataset.Set{
		{ID: 0, Observed: 1},
		{ID: 1, Observed: 2},
		{ID: 2, Observed: dataset.Missing},
		{ID: 3, Observed: 1},
	}
	got := RestrictToLabels(set, map[int]bool{1: true})
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 3 {
		t.Fatalf("RestrictToLabels = %v", got)
	}
	if got := RestrictToLabels(set, nil); len(got) != 0 {
		t.Fatalf("nil labels kept %d", len(got))
	}
}

// TestScoresFillReuseIsSafe pins the two-buffer rule core relies on: with one
// Evaluator and two Scores, filling the second (I′) leaves everything read
// from the first (D) — including row slices handed out earlier — untouched;
// refilling a Scores matches a fresh Score element for element even
// after it held a larger set; and a warmed Fill allocates nothing.
func TestScoresFillReuseIsSafe(t *testing.T) {
	model, set := testModelAndSet(t)
	d, inv := set[:5], set[3:]
	ev := nn.NewEvaluator(model)
	var dScores, iScores Scores
	var meter cost.Meter
	dScores.Fill(ev, d, &meter)
	heldFeat, heldConf := dScores.Features[2], dScores.Confidences[2]
	want := Score(model, d, nil)
	iScores.Fill(ev, inv, &meter)
	if meter.ForwardPasses != int64(len(d)+len(inv)) {
		t.Fatalf("meter charged %d forward passes", meter.ForwardPasses)
	}
	sameScores(t, "D after scoring I′", &dScores, want)
	for j, v := range want.Features[2] {
		if heldFeat[j] != v {
			t.Fatal("a feature row handed out before the second Fill changed")
		}
	}
	for j, v := range want.Confidences[2] {
		if heldConf[j] != v {
			t.Fatal("a confidence row handed out before the second Fill changed")
		}
	}
	sameScores(t, "I′", &iScores, Score(model, inv, nil))

	// Shrinking refill: no stale rows or lengths from the larger set.
	iScores.Fill(ev, d, nil)
	sameScores(t, "refilled with a smaller set", &iScores, want)

	dScores.Fill(ev, d, nil)
	if n := testing.AllocsPerRun(10, func() { dScores.Fill(ev, d, nil) }); n != 0 {
		t.Fatalf("warmed Fill allocates %v times per call, want 0", n)
	}
}

func sameScores(t *testing.T, label string, got, want *Scores) {
	t.Helper()
	if len(got.Confidences) != len(want.Confidences) || len(got.Features) != len(want.Features) ||
		len(got.Predicted) != len(want.Predicted) || len(got.MaxConf) != len(want.MaxConf) || len(got.Entropy) != len(want.Entropy) {
		t.Fatalf("%s: lengths differ", label)
	}
	for i := range want.Predicted {
		if got.Predicted[i] != want.Predicted[i] || got.MaxConf[i] != want.MaxConf[i] || got.Entropy[i] != want.Entropy[i] {
			t.Fatalf("%s: sample %d statistics differ", label, i)
		}
		for j, v := range want.Confidences[i] {
			if got.Confidences[i][j] != v {
				t.Fatalf("%s: sample %d confidence[%d] differs", label, i, j)
			}
		}
		for j, v := range want.Features[i] {
			if got.Features[i][j] != v {
				t.Fatalf("%s: sample %d feature[%d] differs", label, i, j)
			}
		}
	}
}
