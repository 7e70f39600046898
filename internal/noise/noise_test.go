package noise

import (
	"math"
	"testing"
	"testing/quick"

	"enld/internal/dataset"
	"enld/internal/mat"
)

func TestPairMatrix(t *testing.T) {
	tm, err := Pair(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if tm[i][i] != 0.7 {
			t.Errorf("T[%d][%d] = %v", i, i, tm[i][i])
		}
		if tm[i][(i+1)%4] != 0.3 {
			t.Errorf("T[%d][%d] = %v", i, (i+1)%4, tm[i][(i+1)%4])
		}
	}
}

func TestPairErrors(t *testing.T) {
	if _, err := Pair(1, 0.1); err == nil {
		t.Error("1 class accepted")
	}
	if _, err := Pair(4, 1.0); err == nil {
		t.Error("eta=1 accepted")
	}
	if _, err := Pair(4, -0.1); err == nil {
		t.Error("negative eta accepted")
	}
}

func TestSymmetricMatrix(t *testing.T) {
	tm, err := Symmetric(5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if tm[0][0] != 0.6 {
		t.Errorf("diagonal %v", tm[0][0])
	}
	if tm[0][1] != 0.1 {
		t.Errorf("off-diagonal %v", tm[0][1])
	}
}

// TestIdentity: zero-rate noise is the identity matrix, and applying it
// corrupts nothing.
func TestIdentity(t *testing.T) {
	tm, err := Symmetric(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	set := dataset.Set{{ID: 0, True: 1, Observed: 1}, {ID: 1, True: 2, Observed: 2}}
	n, err := Apply(set, tm, mat.NewRNG(1))
	if err != nil || n != 0 {
		t.Fatalf("identity noise corrupted %d labels, err=%v", n, err)
	}
}

func TestValidateRejectsBadMatrices(t *testing.T) {
	bad := TransitionMatrix{{0.5, 0.4}, {0.5, 0.5}}
	if err := bad.Validate(); err == nil {
		t.Error("non-stochastic row accepted")
	}
	neg := TransitionMatrix{{1.5, -0.5}, {0, 1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative entry accepted")
	}
	ragged := TransitionMatrix{{1}, {0, 1}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestApplyPairRate(t *testing.T) {
	const n = 20000
	set := make(dataset.Set, n)
	for i := range set {
		set[i] = dataset.Sample{ID: i, True: i % 4, Observed: i % 4}
	}
	tm, _ := Pair(4, 0.3)
	noisy, err := Apply(set, tm, mat.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(noisy) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("empirical noise rate %v, want ~0.3", rate)
	}
	// Pair noise only flips to (i+1) mod l.
	for _, s := range set {
		if s.Observed != s.True && s.Observed != (s.True+1)%4 {
			t.Fatalf("pair noise flipped %d -> %d", s.True, s.Observed)
		}
	}
}

func TestApplyRejectsOutOfRangeTrueLabel(t *testing.T) {
	set := dataset.Set{{ID: 0, True: 7, Observed: 7}}
	tm, _ := Pair(4, 0.1)
	if _, err := Apply(set, tm, mat.NewRNG(1)); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestMaskMissing(t *testing.T) {
	const n = 10000
	set := make(dataset.Set, n)
	for i := range set {
		set[i] = dataset.Sample{ID: i, True: 0, Observed: 0}
	}
	masked, err := MaskMissing(set, 0.25, mat.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(masked)/n-0.25) > 0.02 {
		t.Fatalf("masked %d of %d", masked, n)
	}
	count := 0
	for _, s := range set {
		if s.IsMissing() {
			count++
		}
	}
	if count != masked {
		t.Fatalf("count %d != reported %d", count, masked)
	}
	if _, err := MaskMissing(set, 1.5, mat.NewRNG(1)); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

type constantModel struct{ label int }

func (m constantModel) Predict([]float64) int { return m.label }

// mapModel predicts by looking up the first feature value.
type mapModel map[float64]int

func (m mapModel) Predict(x []float64) int { return m[x[0]] }

func TestEstimateJoint(t *testing.T) {
	set := dataset.Set{
		{ID: 0, X: []float64{0}, Observed: 0},
		{ID: 1, X: []float64{1}, Observed: 0},
		{ID: 2, X: []float64{2}, Observed: 1},
		{ID: 3, X: []float64{3}, Observed: dataset.Missing},
	}
	model := mapModel{0: 0, 1: 1, 2: 1, 3: 0}
	j, err := EstimateJoint(set, model, 2)
	if err != nil {
		t.Fatal(err)
	}
	if j[0][0] != 1 || j[0][1] != 1 || j[1][1] != 1 || j[1][0] != 0 {
		t.Fatalf("joint = %v", j)
	}
}

func TestEstimateJointErrors(t *testing.T) {
	if _, err := EstimateJoint(nil, constantModel{}, 1); err == nil {
		t.Error("1 class accepted")
	}
	set := dataset.Set{{ID: 0, X: []float64{0}, Observed: 5}}
	if _, err := EstimateJoint(set, constantModel{}, 2); err == nil {
		t.Error("out-of-range observed label accepted")
	}
	set = dataset.Set{{ID: 0, X: []float64{0}, Observed: 0}}
	if _, err := EstimateJoint(set, constantModel{label: 9}, 2); err == nil {
		t.Error("out-of-range prediction accepted")
	}
}

func TestConditionalNormalization(t *testing.T) {
	j := Joint{{8, 2}, {0, 0}}
	p := j.Conditional()
	if p[0][0] != 0.8 || p[0][1] != 0.2 {
		t.Fatalf("row 0 = %v", p[0])
	}
	// Empty row falls back to point mass on itself.
	if p[1][1] != 1 || p[1][0] != 0 {
		t.Fatalf("row 1 = %v", p[1])
	}
}

func TestConditionalSample(t *testing.T) {
	p := Conditional{{0.5, 0.5, 0}, {0, 1, 0}, {0, 0, 1}}
	rng := mat.NewRNG(4)
	// Unrestricted sampling from row 1 always yields 1.
	for i := 0; i < 20; i++ {
		if got := p.Sample(1, nil, rng); got != 1 {
			t.Fatalf("Sample(1) = %d", got)
		}
	}
	// Restricted to {0}: row 0 has mass there.
	allowed := map[int]bool{0: true}
	for i := 0; i < 20; i++ {
		if got := p.Sample(0, allowed, rng); got != 0 {
			t.Fatalf("restricted Sample = %d", got)
		}
	}
	// Row 2 restricted to {0}: no mass → fallback to first allowed.
	if got := p.Sample(2, allowed, rng); got != 0 {
		t.Fatalf("fallback Sample = %d", got)
	}
	// Out-of-range observed label falls back gracefully.
	if got := p.Sample(9, nil, rng); got != 9 {
		t.Fatalf("out-of-range Sample = %d", got)
	}
	// Empty allowed set falls back to i.
	if got := p.Sample(1, map[int]bool{}, rng); got != 1 {
		t.Fatalf("empty-allowed Sample = %d", got)
	}
}

func TestConditionalSampleDistribution(t *testing.T) {
	p := Conditional{{0.7, 0.3}}
	rng := mat.NewRNG(5)
	const n = 50000
	count := 0
	for i := 0; i < n; i++ {
		if p.Sample(0, nil, rng) == 0 {
			count++
		}
	}
	if got := float64(count) / n; math.Abs(got-0.7) > 0.02 {
		t.Fatalf("sampled P(0) = %v, want ~0.7", got)
	}
}

// Property: Apply preserves true labels and sample count for arbitrary
// pair-noise rates.
func TestApplyProperty(t *testing.T) {
	f := func(seed uint64, etaRaw uint8) bool {
		eta := float64(etaRaw%90) / 100
		set := make(dataset.Set, 200)
		for i := range set {
			set[i] = dataset.Sample{ID: i, True: i % 5, Observed: i % 5}
		}
		tm, err := Pair(5, eta)
		if err != nil {
			return false
		}
		if _, err := Apply(set, tm, mat.NewRNG(seed)); err != nil {
			return false
		}
		for i, s := range set {
			if s.True != i%5 {
				return false
			}
			if s.Observed < 0 || s.Observed >= 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestApplyInstanceDependent(t *testing.T) {
	// Two overlapping classes: boundary samples must flip more often.
	sp := struct{ n int }{n: 2000}
	rng := mat.NewRNG(90)
	set := make(dataset.Set, 0, sp.n)
	for i := 0; i < sp.n; i++ {
		c := i % 2
		mean := -2.0
		if c == 1 {
			mean = 2.0
		}
		set = append(set, dataset.Sample{
			ID: i, X: []float64{mean + rng.Norm()*1.5}, Observed: c, True: c,
		})
	}
	noisy, err := ApplyInstanceDependent(set, 2, 0.6, mat.NewRNG(91))
	if err != nil {
		t.Fatal(err)
	}
	if noisy == 0 || noisy == sp.n {
		t.Fatalf("noisy = %d", noisy)
	}
	// Flip rate near the boundary (|x| < 0.5) must exceed the rate far from
	// it (|x| > 3).
	nearFlips, nearTotal, farFlips, farTotal := 0, 0, 0, 0
	for _, s := range set {
		x := s.X[0]
		if x < 0 {
			x = -x
		}
		switch {
		case x < 0.5:
			nearTotal++
			if s.IsNoisy() {
				nearFlips++
			}
		case x > 3:
			farTotal++
			if s.IsNoisy() {
				farFlips++
			}
		}
	}
	if nearTotal == 0 || farTotal == 0 {
		t.Fatal("bad test geometry")
	}
	nearRate := float64(nearFlips) / float64(nearTotal)
	farRate := float64(farFlips) / float64(farTotal)
	if nearRate <= farRate {
		t.Fatalf("boundary flip rate %v not above far rate %v", nearRate, farRate)
	}
	// Flips always go to the nearest competitor (the other class here).
	for _, s := range set {
		if s.IsNoisy() && s.Observed == s.True {
			t.Fatal("inconsistent noisy flag")
		}
	}
}

func TestApplyInstanceDependentErrors(t *testing.T) {
	set := dataset.Set{{ID: 0, X: []float64{1}, True: 0, Observed: 0}}
	if _, err := ApplyInstanceDependent(set, 2, 1.5, mat.NewRNG(1)); err == nil {
		t.Error("rate > 1 accepted")
	}
	bad := dataset.Set{{ID: 0, X: []float64{1}, True: 5, Observed: 5}}
	if _, err := ApplyInstanceDependent(bad, 2, 0.2, mat.NewRNG(1)); err == nil {
		t.Error("out-of-range true label accepted")
	}
	if n, err := ApplyInstanceDependent(nil, 2, 0.2, mat.NewRNG(1)); err != nil || n != 0 {
		t.Error("empty set not a no-op")
	}
	// Single-class data has no competitor: labels stay clean.
	single := dataset.Set{{ID: 0, X: []float64{1}, True: 0, Observed: 0}, {ID: 1, X: []float64{2}, True: 0, Observed: 0}}
	if n, err := ApplyInstanceDependent(single, 1, 0.9, mat.NewRNG(1)); err != nil || n != 0 {
		t.Errorf("single class flipped %d, err=%v", n, err)
	}
}
