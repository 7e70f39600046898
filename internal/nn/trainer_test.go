package nn

import (
	"bytes"
	"math"
	"testing"

	"enld/internal/mat"
)

// accuracy returns the fraction of examples whose batched prediction
// matches the argmax of their target distribution.
func accuracy(net *Network, examples []Example) float64 {
	xs := make([][]float64, len(examples))
	for i, ex := range examples {
		xs[i] = ex.X
	}
	correct := 0
	for i, pred := range net.PredictBatch(xs, 1) {
		if pred == mat.ArgMax(examples[i].Target) {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// twoBlobs builds a linearly separable 2-class problem.
func twoBlobs(n int, seed uint64) []Example {
	rng := mat.NewRNG(seed)
	out := make([]Example, 0, 2*n)
	for i := 0; i < n; i++ {
		x0 := []float64{rng.Norm()*0.3 + 2, rng.Norm() * 0.3}
		x1 := []float64{rng.Norm()*0.3 - 2, rng.Norm() * 0.3}
		out = append(out,
			Example{X: x0, Target: OneHot(0, 2)},
			Example{X: x1, Target: OneHot(1, 2)},
		)
	}
	return out
}

func TestTrainingLearnsSeparableProblem(t *testing.T) {
	examples := twoBlobs(100, 1)
	net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(2))
	tr := NewTrainer(net, NewSGD(0.1, 0.9, 0))
	stats, err := tr.Run(examples, TrainConfig{Epochs: 20, BatchSize: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(net, examples); acc < 0.98 {
		t.Fatalf("accuracy after training = %v", acc)
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].MeanLoss, stats[len(stats)-1].MeanLoss)
	}
}

func TestTrainingWithMixup(t *testing.T) {
	examples := twoBlobs(100, 7)
	net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(8))
	tr := NewTrainer(net, NewSGD(0.1, 0.9, 0))
	_, err := tr.Run(examples, TrainConfig{Epochs: 25, BatchSize: 16, Mixup: true, MixupAlpha: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(net, examples); acc < 0.95 {
		t.Fatalf("mixup accuracy = %v", acc)
	}
}

func TestRunRejectsEmptyAndMalformed(t *testing.T) {
	net := NewNetwork([]int{2, 3, 2}, mat.NewRNG(1))
	tr := NewTrainer(net, NewSGD(0.1, 0, 0))
	if _, err := tr.Run(nil, TrainConfig{}); err == nil {
		t.Fatal("empty example set accepted")
	}
	bad := []Example{{X: []float64{1}, Target: OneHot(0, 2)}}
	if _, err := tr.Run(bad, TrainConfig{}); err == nil {
		t.Fatal("malformed example accepted")
	}
}

func TestTrainingDeterminism(t *testing.T) {
	run := func() []float64 {
		examples := twoBlobs(30, 10)
		net := NewNetwork([]int{2, 6, 2}, mat.NewRNG(11))
		tr := NewTrainer(net, NewSGD(0.05, 0.9, 1e-4))
		if _, err := tr.Run(examples, TrainConfig{Epochs: 5, BatchSize: 8, Mixup: true, Seed: 12}); err != nil {
			t.Fatal(err)
		}
		return net.Confidences([]float64{0.5, 0.5})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training is not deterministic under fixed seeds")
		}
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	examples := twoBlobs(50, 13)
	norm := func(decay float64) float64 {
		net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(14))
		tr := NewTrainer(net, NewSGD(0.1, 0.9, decay))
		if _, err := tr.Run(examples, TrainConfig{Epochs: 30, BatchSize: 16, Seed: 15}); err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, w := range net.Weights {
			s += mat.Dot(w.Data, w.Data)
		}
		return s
	}
	if norm(0.01) >= norm(0) {
		t.Fatal("weight decay did not shrink weight norm")
	}
}

func TestMeanLossEmpty(t *testing.T) {
	net := NewNetwork([]int{2, 3, 2}, mat.NewRNG(1))
	if MeanLoss(net, nil) != 0 {
		t.Error("MeanLoss(empty) != 0")
	}
}

func TestStepIgnoresEmptyBatch(t *testing.T) {
	net := NewNetwork([]int{2, 3, 2}, mat.NewRNG(1))
	before := net.Clone()
	g := net.NewGrads()
	NewSGD(0.1, 0.9, 0).Step(net, g, 0)
	if !net.Weights[0].Equal(before.Weights[0], 0) {
		t.Fatal("Step with batchSize=0 changed parameters")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := NewNetwork([]int{3, 5, 4}, mat.NewRNG(20))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.5, 2}
	a, b := net.Confidences(x), loaded.Confidences(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded network differs from saved one")
		}
	}
	// Loaded network must be trainable (scratch buffers rebuilt).
	g := loaded.NewGrads()
	loaded.Backward(g, x, OneHot(0, 4))
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

// archs lists the three named families.
var archs = []Arch{SimDenseNet121, SimResNet110, SimResNet164}

func TestBuildArchitectures(t *testing.T) {
	for _, a := range archs {
		net, err := Build(a, 16, 10, mat.NewRNG(1))
		if err != nil {
			t.Fatalf("Build(%s): %v", a, err)
		}
		if net.InputDim() != 16 || net.Classes() != 10 {
			t.Fatalf("Build(%s) wrong dims", a)
		}
	}
	if _, err := Build("nope", 16, 10, mat.NewRNG(1)); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if _, err := Build(SimResNet110, 0, 10, mat.NewRNG(1)); err == nil {
		t.Fatal("zero input dim accepted")
	}
}

func TestArchitecturesDiffer(t *testing.T) {
	// The three families must actually differ in parameter count, otherwise
	// the Fig. 6 experiment is vacuous.
	counts := map[int]bool{}
	for _, a := range archs {
		net, err := Build(a, 16, 10, mat.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		counts[net.NumParams()] = true
	}
	if len(counts) != len(archs) {
		t.Fatalf("architectures do not differ in size: %v", counts)
	}
}

func TestMixupLossFiniteUnderExtremeAlpha(t *testing.T) {
	examples := twoBlobs(20, 30)
	net := NewNetwork([]int{2, 4, 2}, mat.NewRNG(31))
	tr := NewTrainer(net, NewSGD(0.1, 0, 0))
	stats, err := tr.Run(examples, TrainConfig{Epochs: 2, BatchSize: 8, Mixup: true, MixupAlpha: 0.05, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if math.IsNaN(s.MeanLoss) || math.IsInf(s.MeanLoss, 0) {
			t.Fatalf("non-finite loss: %v", s.MeanLoss)
		}
	}
}

func TestClipNormPreventsDivergence(t *testing.T) {
	examples := twoBlobs(60, 40)
	// LR 0.05 with momentum diverges unclipped on this architecture (see
	// NewSGD's doc); clipping must keep the loss finite.
	unclipped := NewSGD(0.05, 0.9, 0)
	unclipped.ClipNorm = 0
	netA := NewNetwork([]int{2, 64, 48, 2}, mat.NewRNG(41))
	trA := NewTrainer(netA, unclipped)
	statsA, err := trA.Run(examples, TrainConfig{Epochs: 10, BatchSize: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	clipped := NewSGD(0.05, 0.9, 0) // default ClipNorm 5
	netB := NewNetwork([]int{2, 64, 48, 2}, mat.NewRNG(41))
	trB := NewTrainer(netB, clipped)
	statsB, err := trB.Run(examples, TrainConfig{Epochs: 10, BatchSize: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	lastB := statsB[len(statsB)-1].MeanLoss
	if math.IsNaN(lastB) || math.IsInf(lastB, 0) {
		t.Fatalf("clipped training diverged: %v", lastB)
	}
	// The unclipped run may or may not diverge depending on init; the
	// clipped run must do at least as well whenever the unclipped one blew
	// up.
	lastA := statsA[len(statsA)-1].MeanLoss
	if !math.IsNaN(lastA) && !math.IsInf(lastA, 0) && lastB > lastA*10+1 {
		t.Fatalf("clipping hurt badly: clipped %v vs unclipped %v", lastB, lastA)
	}
}
