package nn

import (
	"math"
	"testing"
	"testing/quick"

	"enld/internal/mat"
)

func newTestNet(t *testing.T, sizes ...int) *Network {
	t.Helper()
	return NewNetwork(sizes, mat.NewRNG(1))
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for l, w := range n.Weights {
		total += len(w.Data) + len(n.Biases[l])
	}
	return total
}

func TestNetworkShapes(t *testing.T) {
	n := newTestNet(t, 5, 8, 6, 3)
	if n.InputDim() != 5 {
		t.Errorf("InputDim = %d", n.InputDim())
	}
	if n.Classes() != 3 {
		t.Errorf("Classes = %d", n.Classes())
	}
	if n.FeatureDim() != 6 {
		t.Errorf("FeatureDim = %d", n.FeatureDim())
	}
	wantParams := 5*8 + 8 + 8*6 + 6 + 6*3 + 3
	if n.NumParams() != wantParams {
		t.Errorf("NumParams = %d, want %d", n.NumParams(), wantParams)
	}
}

func TestNewNetworkPanics(t *testing.T) {
	for _, sizes := range [][]int{{3}, {}, {3, 0, 2}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNetwork(%v) did not panic", sizes)
				}
			}()
			NewNetwork(sizes, mat.NewRNG(1))
		}()
	}
}

func TestConfidencesIsDistribution(t *testing.T) {
	n := newTestNet(t, 4, 6, 3)
	rng := mat.NewRNG(2)
	for trial := 0; trial < 20; trial++ {
		x := rng.NormVec(make([]float64, 4), 0, 1)
		p := n.Confidences(x)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("confidence out of range: %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("confidences sum to %v", sum)
		}
	}
}

func TestPredictMatchesConfidences(t *testing.T) {
	n := newTestNet(t, 4, 5, 3)
	rng := mat.NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		x := rng.NormVec(make([]float64, 4), 0, 1)
		if n.Predict(x) != mat.ArgMax(n.Confidences(x)) {
			t.Fatal("Predict disagrees with argmax of Confidences")
		}
	}
}

func TestFeaturesNonNegative(t *testing.T) {
	// Features are post-ReLU activations, so they must be >= 0.
	n := newTestNet(t, 4, 7, 3)
	rng := mat.NewRNG(4)
	for trial := 0; trial < 20; trial++ {
		x := rng.NormVec(make([]float64, 4), 0, 1)
		f := n.Features(x)
		if len(f) != n.FeatureDim() {
			t.Fatalf("feature length %d", len(f))
		}
		for _, v := range f {
			if v < 0 {
				t.Fatalf("negative feature: %v", f)
			}
		}
	}
}

func TestLossPositiveAndConsistent(t *testing.T) {
	n := newTestNet(t, 3, 4, 2)
	x := []float64{0.5, -0.2, 0.1}
	for label := 0; label < 2; label++ {
		loss := n.Loss(x, OneHot(label, 2))
		if loss <= 0 {
			t.Fatalf("cross-entropy loss %v not positive", loss)
		}
		// loss == -log(p[label])
		p := n.Confidences(x)
		if math.Abs(loss-(-math.Log(p[label]))) > 1e-9 {
			t.Fatalf("Loss=%v, -log p=%v", loss, -math.Log(p[label]))
		}
	}
}

// TestGradientCheck verifies Backward against numerical differentiation —
// the canonical correctness test for a backprop implementation.
func TestGradientCheck(t *testing.T) {
	n := newTestNet(t, 3, 5, 4, 3)
	rng := mat.NewRNG(7)
	x := rng.NormVec(make([]float64, 3), 0, 1)
	target := []float64{0.2, 0.5, 0.3} // soft target exercises the general path

	g := n.NewGrads()
	n.Backward(g, x, target)

	const h = 1e-6
	checkParam := func(get func() *float64, analytic float64, where string) {
		p := get()
		orig := *p
		*p = orig + h
		lp := n.Loss(x, target)
		*p = orig - h
		lm := n.Loss(x, target)
		*p = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("%s: analytic %v, numeric %v", where, analytic, numeric)
		}
	}
	for l := range n.Weights {
		w := n.Weights[l]
		// Sample a few entries per layer rather than every parameter.
		for trial := 0; trial < 8; trial++ {
			i, j := rng.Intn(w.Rows), rng.Intn(w.Cols)
			idx := i*w.Cols + j
			checkParam(func() *float64 { return &w.Data[idx] }, g.Weights[l].Data[idx], "weight")
		}
		for trial := 0; trial < 4; trial++ {
			i := rng.Intn(len(n.Biases[l]))
			checkParam(func() *float64 { return &n.Biases[l][i] }, g.Biases[l][i], "bias")
		}
	}
}

func TestBackwardReturnsLoss(t *testing.T) {
	n := newTestNet(t, 3, 4, 2)
	x := []float64{1, 0, -1}
	target := OneHot(1, 2)
	g := n.NewGrads()
	if got, want := n.Backward(g, x, target), n.Loss(x, target); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Backward loss %v != Loss %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := newTestNet(t, 3, 4, 2)
	x := []float64{1, 2, 3}
	n.ConfidencesBatch([][]float64{x}) // leave an evaluator in n's pool
	c := n.Clone()
	before := n.Confidences(x)
	// Mutate the clone; original must be unaffected.
	c.Weights[0].Data[0] += 10
	after := n.Confidences(x)
	cloned := c.Confidences(x)
	// Batched passes borrow from each network's own pool, so each follows
	// its own parameters.
	nBatch, cBatch := n.ConfidencesBatch([][]float64{x})[0], c.ConfidencesBatch([][]float64{x})[0]
	for i := range before {
		if before[i] != after[i] || nBatch[i] != before[i] {
			t.Fatal("Clone shares parameters with original")
		}
		if cBatch[i] != cloned[i] {
			t.Fatal("clone's batched pass does not read the clone's parameters")
		}
	}
}

func TestCopyFrom(t *testing.T) {
	a := newTestNet(t, 3, 4, 2)
	b := NewNetwork([]int{3, 4, 2}, mat.NewRNG(99))
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3}
	pa, pb := a.Confidences(x), b.Confidences(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("CopyFrom did not copy parameters")
		}
	}
	c := NewNetwork([]int{3, 5, 2}, mat.NewRNG(1))
	if err := c.CopyFrom(a); err == nil {
		t.Fatal("CopyFrom accepted architecture mismatch")
	}
}

func TestOneHot(t *testing.T) {
	v := OneHot(2, 4)
	if v[2] != 1 || mat.Sum(v) != 1 {
		t.Fatalf("OneHot = %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OneHot out of range did not panic")
		}
	}()
	OneHot(4, 4)
}

// Property: loss is invariant under cloning and confidences deterministic.
func TestDeterministicForward(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		n := NewNetwork([]int{4, 6, 3}, rng)
		x := rng.NormVec(make([]float64, 4), 0, 1)
		a := n.Confidences(x)
		b := n.Clone().Confidences(x)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateMatchesSeparateCalls(t *testing.T) {
	n := newTestNet(t, 5, 7, 4)
	rng := mat.NewRNG(70)
	for trial := 0; trial < 20; trial++ {
		x := rng.NormVec(make([]float64, 5), 0, 1)
		conf, feat := n.Evaluate(x)
		wantConf := n.Confidences(x)
		wantFeat := n.Features(x)
		for i := range conf {
			if conf[i] != wantConf[i] {
				t.Fatal("Evaluate confidences differ")
			}
		}
		for i := range feat {
			if feat[i] != wantFeat[i] {
				t.Fatal("Evaluate features differ")
			}
		}
	}
}
