package nn

import (
	"testing"

	"enld/internal/mat"
	"enld/internal/obs"
)

// TestTrainerObsMetrics: an observed Run records epoch/batch durations and
// batch losses, and the metric stream does not perturb training — the trained
// weights are bit-identical to an unobserved run.
func TestTrainerObsMetrics(t *testing.T) {
	examples := twoBlobs(60, 1)
	cfg := TrainConfig{Epochs: 3, BatchSize: 16, Seed: 3}

	plain := NewNetwork([]int{2, 8, 2}, mat.NewRNG(2))
	if _, err := NewTrainer(plain, NewSGD(0.1, 0.9, 0)).Run(examples, cfg); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	observed := NewNetwork([]int{2, 8, 2}, mat.NewRNG(2))
	tr := NewTrainer(observed, NewSGD(0.1, 0.9, 0))
	tr.Obs = reg
	stats, err := tr.Run(examples, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for l := range plain.Weights {
		for i, w := range plain.Weights[l].Data {
			if observed.Weights[l].Data[i] != w {
				t.Fatalf("observed run diverged at layer %d weight %d", l, i)
			}
		}
	}

	epochs := reg.Histogram("enld_train_epoch_seconds",
		"Wall-clock duration of one training epoch.", obs.DefBuckets)
	if got := epochs.Count(); got != uint64(cfg.Epochs) {
		t.Fatalf("epoch histogram count = %d, want %d", got, cfg.Epochs)
	}
	var updates uint64
	for _, st := range stats {
		updates += uint64(st.BatchUpdates)
	}
	batches := reg.Histogram("enld_train_batch_seconds",
		"Wall-clock duration of one mini-batch update.", obs.DefBuckets)
	if got := batches.Count(); got != updates {
		t.Fatalf("batch histogram count = %d, want %d", got, updates)
	}
	losses := reg.Histogram("enld_train_batch_loss",
		"Mean per-sample cross-entropy loss of each mini-batch.", lossBuckets)
	if got := losses.Count(); got != updates {
		t.Fatalf("loss histogram count = %d, want %d", got, updates)
	}
	if losses.Sum() <= 0 {
		t.Fatal("loss histogram sum not positive")
	}
}
