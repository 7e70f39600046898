package nn

import (
	"fmt"
	"testing"

	"enld/internal/mat"
)

// The differential tests in this file pin the tentpole contract of the blocked
// GEMM batch kernels: every batched pass — forward, loss, backward, the fused
// per-chunk gradient pass, full training, and inference through a reused
// Evaluator — is bit-identical to the per-sample path it replaced, across
// ragged batch sizes. The allocation pins at the end keep
// "steady-state passes allocate nothing" true for every caller.

// diffNet builds a three-hidden-layer network whose layer widths are not
// multiples of the GEMM register tile, so every pass exercises edge kernels.
func diffNet(seed uint64) *Network {
	return NewNetwork([]int{6, 13, 9, 5}, mat.NewRNG(seed))
}

func diffInputs(n int, seed uint64) [][]float64 {
	rng := mat.NewRNG(seed)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = rng.NormVec(make([]float64, 6), 0, 1)
	}
	return xs
}

// TestForwardBatchRaggedBitIdentical reuses one BatchScratch across batch
// sizes 1, 7, 64 and the full input set (growing and shrinking the views) and
// checks confidences, features and predictions against per-sample calls.
func TestForwardBatchRaggedBitIdentical(t *testing.T) {
	net := diffNet(81)
	xs := diffInputs(100, 82)
	var s BatchScratch
	for _, bs := range []int{1, 7, 64, len(xs)} {
		batch := xs[:bs]
		net.ForwardBatch(&s, batch)
		logits, feats := s.Logits(), s.Features()
		if logits.Rows != bs || feats.Rows != bs {
			t.Fatalf("batch=%d: scratch rows %d/%d", bs, logits.Rows, feats.Rows)
		}
		conf := make([]float64, net.Classes())
		for r, x := range batch {
			mat.Softmax(conf, logits.Row(r))
			wantC, wantF := net.Evaluate(x)
			for j := range wantC {
				if conf[j] != wantC[j] {
					t.Fatalf("batch=%d row %d: confidence[%d] %v != %v", bs, r, j, conf[j], wantC[j])
				}
			}
			for j := range wantF {
				if feats.Row(r)[j] != wantF[j] {
					t.Fatalf("batch=%d row %d: feature[%d] %v != %v", bs, r, j, feats.Row(r)[j], wantF[j])
				}
			}
			if mat.ArgMax(logits.Row(r)) != net.Predict(x) {
				t.Fatalf("batch=%d row %d: prediction mismatch", bs, r)
			}
		}
	}
}

// TestLossBatchBitIdentical checks batched cross-entropy losses against
// per-sample Loss calls at ragged batch sizes and through LossesBatch.
func TestLossBatchBitIdentical(t *testing.T) {
	net := diffNet(83)
	xs := diffInputs(90, 84)
	rng := mat.NewRNG(85)
	targets := make([][]float64, len(xs))
	for i := range targets {
		targets[i] = OneHot(rng.Intn(net.Classes()), net.Classes())
	}
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = net.Loss(x, targets[i])
	}
	var s BatchScratch
	out := make([]float64, len(xs))
	for _, bs := range []int{1, 7, 64, len(xs)} {
		net.LossBatch(&s, xs[:bs], targets[:bs], out[:bs])
		for i := 0; i < bs; i++ {
			if out[i] != want[i] {
				t.Fatalf("batch=%d: loss[%d] %v != %v", bs, i, out[i], want[i])
			}
		}
	}
	for i, got := range net.LossesBatch(xs, targets) {
		if got != want[i] {
			t.Fatalf("LossesBatch: loss[%d] %v != %v", i, got, want[i])
		}
	}
}

// TestBackwardBatchBitIdentical checks one batched backward pass against the
// same samples pushed through per-sample Backward calls in row order: summed
// loss and every gradient entry must match bit for bit.
func TestBackwardBatchBitIdentical(t *testing.T) {
	net := diffNet(86)
	rng := mat.NewRNG(87)
	for _, bs := range []int{1, 7, 8, 64} {
		xs := diffInputs(bs, 88+uint64(bs))
		targets := make([][]float64, bs)
		for i := range targets {
			targets[i] = OneHot(rng.Intn(net.Classes()), net.Classes())
		}
		ref := net.Clone()
		gWant := net.NewGrads()
		var lossWant float64
		for i := range xs {
			lossWant += ref.Backward(gWant, xs[i], targets[i])
		}
		var s BatchScratch
		gGot := net.NewGrads()
		lossGot := net.BackwardBatch(&s, gGot, xs, targets)
		if lossGot != lossWant {
			t.Fatalf("batch=%d: loss %v != %v", bs, lossGot, lossWant)
		}
		for l := range gWant.Weights {
			for i, v := range gWant.Weights[l].Data {
				if gGot.Weights[l].Data[i] != v {
					t.Fatalf("batch=%d: weight grad layer %d index %d: %v != %v",
						bs, l, i, gGot.Weights[l].Data[i], v)
				}
			}
			for i, v := range gWant.Biases[l] {
				if gGot.Biases[l][i] != v {
					t.Fatalf("batch=%d: bias grad layer %d index %d differs", bs, l, i)
				}
			}
		}
	}
}

// fusedBatchSizes straddle the gradChunk (16) and default batch (32)
// boundaries: one short chunk, exactly one, one plus a 1-row tail, two with
// a short / full / overflowing second chunk.
var fusedBatchSizes = []int{1, 7, 16, 17, 31, 32, 33}

// TestFusedChunkPassBitIdentical drives backwardBatchChunked directly: at
// every batch size the reduced gradient and loss must equal the perSample
// reference's arithmetic — per-sample Backward calls over each chunk's rows
// [16c, 16c+16) in row order, each chunk accumulated from zero and the chunks
// summed in order onto a cleared gradient — although the pass accumulates
// chunk 0 straight into the batch gradient and fuses forward, loss and
// backward per chunk.
func TestFusedChunkPassBitIdentical(t *testing.T) {
	net := diffNet(186)
	rng := mat.NewRNG(187)
	var s BatchScratch // reused across sizes: growing, shrinking views
	tmp := net.NewGrads()
	for _, bs := range fusedBatchSizes {
		xs := diffInputs(bs, 188+uint64(bs))
		targets := make([][]float64, bs)
		for i := range targets {
			targets[i] = OneHot(rng.Intn(net.Classes()), net.Classes())
		}
		ref := net.Clone()
		want := net.NewGrads()
		var wantLoss float64
		for lo := 0; lo < bs; lo += gradChunk {
			c := net.NewGrads()
			var loss float64
			for r := lo; r < min(lo+gradChunk, bs); r++ {
				loss += ref.Backward(c, xs[r], targets[r])
			}
			want.Add(c)
			wantLoss += loss
		}
		tmp.Weights[0].Data[0] = 99 // the pass must zero a stale chunk accumulator
		got := net.NewGrads()
		gotLoss := net.backwardBatchChunked(&s, got, tmp, xs, targets)
		label := fmt.Sprintf("batch=%d", bs)
		if gotLoss != wantLoss {
			t.Fatalf("%s: loss %v != %v", label, gotLoss, wantLoss)
		}
		for l := range want.Weights {
			for i, v := range want.Weights[l].Data {
				if got.Weights[l].Data[i] != v {
					t.Fatalf("%s: weight grad layer %d index %d: %v != %v", label, l, i, got.Weights[l].Data[i], v)
				}
			}
			for i, v := range want.Biases[l] {
				if got.Biases[l][i] != v {
					t.Fatalf("%s: bias grad layer %d index %d differs", label, l, i)
				}
			}
		}
	}
}

// trainDiff trains a fresh identically-seeded network through either the
// batched or the per-sample reference gradient path.
func trainDiff(t *testing.T, perSample bool, batchSize int, mixup bool) *Network {
	t.Helper()
	examples := twoBlobs(60, 91)
	net := NewNetwork([]int{2, 13, 9, 2}, mat.NewRNG(92))
	tr := NewTrainer(net, NewSGD(0.05, 0.9, 1e-4))
	tr.perSample = perSample
	_, err := tr.Run(examples, TrainConfig{
		Epochs: 3, BatchSize: batchSize, Mixup: mixup, MixupAlpha: 0.2,
		Seed: 93,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestTrainerBatchedMatchesPerSampleReference is the training-side tentpole
// differential test: the fused gradient path must produce bit-identical
// weights to the per-sample reference path across ragged batch sizes (120
// samples, so every size but 1 also ends on a short batch), with and
// without mixup.
func TestTrainerBatchedMatchesPerSampleReference(t *testing.T) {
	for _, mixup := range []bool{false, true} {
		for _, batchSize := range append([]int{64, 120}, fusedBatchSizes...) {
			ref := trainDiff(t, true, batchSize, mixup)
			got := trainDiff(t, false, batchSize, mixup)
			label := "plain"
			if mixup {
				label = "mixup"
			}
			sameParams(t, fmt.Sprintf("%s/batch=%d", label, batchSize), ref, got)
		}
	}
}

// TestMeanLossAccuracyBatchedMatchesPerSample pins the batched MeanLoss and
// PredictBatch accuracy to the per-sample definitions.
func TestMeanLossAccuracyBatchedMatchesPerSample(t *testing.T) {
	examples := twoBlobs(70, 95) // 140 samples: crosses the batchChunk boundary
	net := NewNetwork([]int{2, 9, 2}, mat.NewRNG(96))
	var wantLoss float64
	correct := 0
	for _, ex := range examples {
		wantLoss += net.Loss(ex.X, ex.Target)
		if net.Predict(ex.X) == mat.ArgMax(ex.Target) {
			correct++
		}
	}
	wantLoss /= float64(len(examples))
	if got := MeanLoss(net, examples); got != wantLoss {
		t.Fatalf("MeanLoss %v != %v", got, wantLoss)
	}
	wantAcc := float64(correct) / float64(len(examples))
	if got := accuracy(net, examples); got != wantAcc {
		t.Fatalf("accuracy %v != %v", got, wantAcc)
	}
}

// TestForwardBatchInputLengthPanics pins the batch input validation.
func TestForwardBatchInputLengthPanics(t *testing.T) {
	net := diffNet(97)
	var s BatchScratch
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardBatch accepted a malformed input row")
		}
	}()
	net.ForwardBatch(&s, [][]float64{make([]float64, 3)})
}

// TestEvaluatorMatchesHelpersAndPerSample runs ONE Evaluator through input
// sets of growing, shrinking and chunk-straddling sizes, with a weight update
// in between, and checks every output element against both the one-shot
// wrapper helpers and the per-sample forward pass. Reusing the workspace must
// never leak a previous call's rows, panels or sizes.
func TestEvaluatorMatchesHelpersAndPerSample(t *testing.T) {
	net := diffNet(201)
	all := diffInputs(150, 202)
	rng := mat.NewRNG(203)
	targets := make([][]float64, len(all))
	for i := range targets {
		targets[i] = OneHot(rng.Intn(net.Classes()), net.Classes())
	}
	ev := NewEvaluator(net)
	var conf, feat mat.Matrix
	var preds []int
	var losses []float64
	for step, n := range []int{37, 150, 0, 64, 65, 1, 128} {
		if step == 3 {
			// Training between calls: the panels must be repacked.
			net.Weights[0].Data[step] += 0.25
			net.Biases[1][0] -= 0.5
		}
		xs, ts := all[:n], targets[:n]
		ev.EvaluateInto(&conf, &feat, xs)
		preds = ev.PredictInto(preds, xs)
		losses = ev.LossesInto(losses, xs, ts)
		hConfOnly := net.ConfidencesBatch(xs)
		hPreds, hLosses := net.PredictBatch(xs, 1), net.LossesBatch(xs, ts)
		if conf.Rows != n || feat.Rows != n || len(preds) != n || len(losses) != n ||
			len(hPreds) != n || len(hLosses) != n {
			t.Fatalf("n=%d: output lengths wrong", n)
		}
		for i, x := range xs {
			label := fmt.Sprintf("n=%d sample %d", n, i)
			wantC, wantF := net.Evaluate(x)
			for j, v := range wantC {
				if conf.Row(i)[j] != v || hConfOnly[i][j] != v {
					t.Fatalf("%s: confidence[%d] differs", label, j)
				}
			}
			for j, v := range wantF {
				if feat.Row(i)[j] != v {
					t.Fatalf("%s: feature[%d] differs", label, j)
				}
			}
			if want := net.Predict(x); preds[i] != want || hPreds[i] != want {
				t.Fatalf("%s: prediction differs", label)
			}
			if want := net.Loss(x, ts[i]); losses[i] != want || hLosses[i] != want {
				t.Fatalf("%s: loss differs", label)
			}
		}
	}
}

// TestEvaluatorOutputsDoNotAlias pins the ownership rule: outputs live in the
// caller's buffers, so a later pass over other inputs changes nothing an
// earlier pass returned into different buffers.
func TestEvaluatorOutputsDoNotAlias(t *testing.T) {
	net := diffNet(211)
	a, b := diffInputs(70, 212), diffInputs(90, 213)
	ev := NewEvaluator(net)
	var confA, featA, confB, featB mat.Matrix
	ev.EvaluateInto(&confA, &featA, a)
	predsA := ev.PredictInto(nil, a)
	keepC, keepF := confA.Clone(), featA.Clone()
	keepP := append([]int(nil), predsA...)
	ev.EvaluateInto(&confB, &featB, b)
	ev.PredictInto(nil, b)
	if !confA.Equal(keepC, 0) || !featA.Equal(keepF, 0) {
		t.Fatal("a later EvaluateInto disturbed an earlier call's output buffers")
	}
	for i := range keepP {
		if predsA[i] != keepP[i] {
			t.Fatal("a later PredictInto disturbed an earlier call's predictions")
		}
	}
}

// TestSteadyStateAllocations pins the allocation budget of the hot path.
// Inference through a warmed Evaluator on same-sized input allocates
// nothing. A warmed Trainer.Run epoch allocates the shuffle permutation and
// the stats slice, and nothing per mini-batch — 4 batches here.
func TestSteadyStateAllocations(t *testing.T) {
	net := diffNet(221)
	xs := diffInputs(150, 222)
	ev := NewEvaluator(net)
	var conf, feat mat.Matrix
	preds := ev.PredictInto(nil, xs)
	ev.EvaluateInto(&conf, &feat, xs)
	if n := testing.AllocsPerRun(10, func() { preds = ev.PredictInto(preds, xs) }); n != 0 {
		t.Errorf("warmed PredictInto allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { ev.EvaluateInto(&conf, &feat, xs) }); n != 0 {
		t.Errorf("warmed EvaluateInto allocates %v times per call, want 0", n)
	}

	examples := make([]Example, 128)
	for i := range examples {
		examples[i] = Example{X: xs[i], Target: OneHot(i%net.Classes(), net.Classes())}
	}
	tr := NewTrainer(net, NewSGD(0.01, 0.9, 0))
	cfg := TrainConfig{Epochs: 1, BatchSize: 32, Seed: 5}
	if _, err := tr.Run(examples, cfg); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := tr.Run(examples, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Errorf("warmed one-epoch Run (4 mini-batches) allocates %v times, want <= 2", n)
	}
}
