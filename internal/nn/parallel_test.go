package nn

import (
	"testing"

	"enld/internal/mat"
)

// trainWeights trains a fresh, identically seeded network through the
// batched or the per-sample reference gradient path and returns it.
func trainWeights(t *testing.T, perSample, mixup bool) *Network {
	t.Helper()
	examples := twoBlobs(60, 21)
	net := NewNetwork([]int{2, 16, 8, 2}, mat.NewRNG(22))
	tr := NewTrainer(net, NewSGD(0.05, 0.9, 1e-4))
	tr.perSample = perSample
	_, err := tr.Run(examples, TrainConfig{
		Epochs: 4, BatchSize: 12, Mixup: mixup, MixupAlpha: 0.2, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// sameParams asserts two networks hold bitwise-identical parameters.
func sameParams(t *testing.T, label string, a, b *Network) {
	t.Helper()
	for l := range a.Weights {
		for i, v := range a.Weights[l].Data {
			if b.Weights[l].Data[i] != v {
				t.Fatalf("%s: weight layer %d index %d differs: %v vs %v",
					label, l, i, v, b.Weights[l].Data[i])
			}
		}
		for i, v := range a.Biases[l] {
			if b.Biases[l][i] != v {
				t.Fatalf("%s: bias layer %d index %d differs", label, l, i)
			}
		}
	}
}

// TestTrainerParallelBitIdentical: the chunked trainer's weights are
// bit-identical to the per-sample reference's, with and without mixup
// (mixup exercises the RNG draws made before the gradient pass).
func TestTrainerParallelBitIdentical(t *testing.T) {
	for _, mixup := range []bool{false, true} {
		label := "plain"
		if mixup {
			label = "mixup"
		}
		sameParams(t, label, trainWeights(t, true, mixup), trainWeights(t, false, mixup))
	}
}

// TestTrainerParallelStatsIdentical checks the per-epoch stats (loss sums
// reduced in chunk order) of the chunked trainer match the per-sample
// reference's.
func TestTrainerParallelStatsIdentical(t *testing.T) {
	run := func(perSample bool) []EpochStats {
		examples := twoBlobs(40, 31)
		net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(32))
		tr := NewTrainer(net, NewSGD(0.1, 0.9, 0))
		tr.perSample = perSample
		stats, err := tr.Run(examples, TrainConfig{Epochs: 3, BatchSize: 10, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	ref, got := run(true), run(false)
	for e := range ref {
		if ref[e] != got[e] {
			t.Fatalf("epoch %d stats %+v, want %+v", e, got[e], ref[e])
		}
	}
}

// TestTrainerReusedAcrossRuns exercises the scratch cache: repeated Run
// calls on one trainer (the fine-grained NLD pattern: one epoch per call),
// with batch sizes that grow and shrink the cached buffers mid-flight, must
// behave like a fresh trainer per call sharing the optimizer.
func TestTrainerReusedAcrossRuns(t *testing.T) {
	examples := twoBlobs(30, 41)
	net := func() *Network { return NewNetwork([]int{2, 6, 2}, mat.NewRNG(42)) }
	reused := NewTrainer(net(), NewSGD(0.05, 0.9, 0))
	freshNet, freshOpt := net(), NewSGD(0.05, 0.9, 0)
	for epoch, batchSize := range []int{8, 20, 5, 33} {
		cfg := TrainConfig{Epochs: 1, BatchSize: batchSize, Seed: uint64(50 + epoch)}
		if _, err := reused.Run(examples, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := NewTrainer(freshNet, freshOpt).Run(examples, cfg); err != nil {
			t.Fatal(err)
		}
	}
	sameParams(t, "reused", freshNet, reused.Net)
}

// TestBatchInferenceMatchesSequential asserts every batch helper equals its
// per-sample counterpart.
func TestBatchInferenceMatchesSequential(t *testing.T) {
	rng := mat.NewRNG(60)
	net := NewNetwork([]int{6, 12, 5}, rng)
	xs := make([][]float64, 37)
	for i := range xs {
		xs[i] = rng.NormVec(make([]float64, 6), 0, 1)
	}
	confs := net.ConfidencesBatch(xs)
	preds := net.PredictBatch(xs, 1)
	for i, x := range xs {
		wantC := net.Confidences(x)
		for j := range wantC {
			if confs[i][j] != wantC[j] {
				t.Fatalf("sample %d: confidence mismatch", i)
			}
		}
		if preds[i] != net.Predict(x) {
			t.Fatalf("sample %d: prediction mismatch", i)
		}
	}
}
