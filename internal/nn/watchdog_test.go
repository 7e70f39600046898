package nn

import (
	"errors"
	"math"
	"testing"

	"enld/internal/mat"
)

// pokeNaNOnce returns an AfterEpoch hook that sets one weight to NaN the
// first time epoch == at fires (re-runs of the epoch after a rollback do not
// re-poke, so recovery can converge).
func pokeNaNOnce(at int) func(int, *Network) {
	done := false
	return func(e int, net *Network) {
		if e == at && !done {
			done = true
			net.Weights[0].Data[0] = math.NaN()
		}
	}
}

// watchdogRun trains through the batched or the per-sample reference
// gradient path with the watchdog on and returns the flattened weights.
func watchdogRun(t *testing.T, perSample bool, hook func(int, *Network)) ([]float64, WatchdogStats, []EpochStats) {
	t.Helper()
	examples := twoBlobs(120, 3)
	net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(2))
	tr := NewTrainer(net, NewSGD(0.1, 0.9, 0))
	tr.perSample = perSample
	stats, err := tr.Run(examples, TrainConfig{
		Epochs: 8, BatchSize: 16, Seed: 7,
		Watchdog:   WatchdogConfig{Enabled: true},
		AfterEpoch: hook,
	})
	if err != nil {
		t.Fatalf("watchdog run (perSample=%v): %v", perSample, err)
	}
	var flat []float64
	for l, w := range net.Weights {
		flat = append(flat, w.Data...)
		flat = append(flat, net.Biases[l]...)
	}
	return flat, tr.WatchdogStats(), stats
}

func TestWatchdogRollsBackFromNaNPoke(t *testing.T) {
	weights, st, stats := watchdogRun(t, false, pokeNaNOnce(2))
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", st.Rollbacks)
	}
	// Poked after epoch 2's checkpoint, so epoch 3 is the one that trips.
	if st.LastUnhealthyEpoch != 3 {
		t.Fatalf("last unhealthy epoch = %d, want 3", st.LastUnhealthyEpoch)
	}
	if len(stats) != 8 {
		t.Fatalf("epoch stats = %d, want 8", len(stats))
	}
	if _, v, bad := findNonFinite(weights); bad {
		t.Fatalf("recovered weights contain %v", v)
	}
	if st.CheckpointsTaken < 2 || st.HealthChecks == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

// TestWatchdogRecoveryDeterministicAcrossWorkers is the acceptance check:
// the same seed and the same injected fault yield the same recovery and
// bit-identical recovered weights on every run, and the batched gradient
// path recovers exactly like the per-sample reference.
func TestWatchdogRecoveryDeterministicAcrossWorkers(t *testing.T) {
	ref, refStats, _ := watchdogRun(t, true, pokeNaNOnce(2))
	for run := 0; run < 2; run++ {
		got, st, _ := watchdogRun(t, false, pokeNaNOnce(2))
		if st != refStats {
			t.Fatalf("run %d: watchdog stats %+v != %+v", run, st, refStats)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("run %d: weight %d differs: %v != %v", run, i, got[i], ref[i])
			}
		}
	}
}

func TestWatchdogRecoveredRunConverges(t *testing.T) {
	examples := twoBlobs(120, 3)
	net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(2))
	tr := NewTrainer(net, NewSGD(0.1, 0.9, 0))
	if _, err := tr.Run(examples, TrainConfig{
		Epochs: 12, BatchSize: 16, Seed: 7,
		Watchdog:   WatchdogConfig{Enabled: true},
		AfterEpoch: pokeNaNOnce(3),
	}); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, examples); acc < 0.9 {
		t.Fatalf("recovered training accuracy %.3f, want >= 0.9", acc)
	}
}

func TestWatchdogLossExplosionRollback(t *testing.T) {
	examples := twoBlobs(120, 3)
	net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(2))
	tr := NewTrainer(net, NewSGD(0.05, 0.9, 0))
	blown := false
	_, err := tr.Run(examples, TrainConfig{
		Epochs: 10, BatchSize: 16, Seed: 7,
		Watchdog: WatchdogConfig{Enabled: true},
		AfterEpoch: func(e int, n *Network) {
			// Shift one output bias by 1e9 once, after the warmup epochs:
			// the next epoch misclassifies half the data with enormous
			// confidence, so its mean loss explodes while every parameter,
			// gradient, and loss value stays finite — only the divergence
			// check can catch this.
			if e == 4 && !blown {
				blown = true
				n.Biases[len(n.Biases)-1][0] += 1e9
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := tr.WatchdogStats()
	if st.Rollbacks == 0 {
		t.Fatalf("loss explosion not detected: %+v", st)
	}
	if st.LastUnhealthyEpoch != 5 {
		t.Fatalf("last unhealthy epoch = %d, want 5", st.LastUnhealthyEpoch)
	}
}

func TestWatchdogBudgetExhaustedSurfacesErrUnhealthy(t *testing.T) {
	examples := twoBlobs(120, 3)
	net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(2))
	tr := NewTrainer(net, NewSGD(0.1, 0.9, 0))
	_, err := tr.Run(examples, TrainConfig{
		Epochs: 8, BatchSize: 16, Seed: 7,
		Watchdog: WatchdogConfig{Enabled: true, MaxRollbacks: 2},
		// Poke NaN every epoch: recovery can never outrun the fault.
		AfterEpoch: func(e int, n *Network) { n.Weights[0].Data[0] = math.NaN() },
	})
	if err == nil {
		t.Fatal("run with a persistent fault succeeded")
	}
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("error %v does not wrap ErrUnhealthy", err)
	}
	var herr *HealthError
	if !errors.As(err, &herr) {
		t.Fatalf("error %v carries no *HealthError", err)
	}
	if st := tr.WatchdogStats(); st.Rollbacks != 2 {
		t.Fatalf("rollbacks = %d, want the budget of 2", st.Rollbacks)
	}
}

func TestWatchdogHealthyRunTakesCheckpointsOnly(t *testing.T) {
	_, st, stats := watchdogRun(t, false, nil)
	if st.Rollbacks != 0 || st.VerifyFailures != 0 {
		t.Fatalf("healthy run recovered: %+v", st)
	}
	if st.LastUnhealthyEpoch != -1 {
		t.Fatalf("healthy run has last unhealthy epoch %d", st.LastUnhealthyEpoch)
	}
	// Initial checkpoint + one per epoch at the default cadence.
	if st.CheckpointsTaken != len(stats)+1 {
		t.Fatalf("checkpoints = %d, want %d", st.CheckpointsTaken, len(stats)+1)
	}
}

func TestWatchdogStatsClearedOnPlainRun(t *testing.T) {
	examples := twoBlobs(60, 3)
	net := NewNetwork([]int{2, 8, 2}, mat.NewRNG(2))
	tr := NewTrainer(net, NewSGD(0.1, 0.9, 0))
	cfg := TrainConfig{Epochs: 1, BatchSize: 16, Seed: 7, Watchdog: WatchdogConfig{Enabled: true}}
	if _, err := tr.Run(examples, cfg); err != nil {
		t.Fatal(err)
	}
	if tr.WatchdogStats().CheckpointsTaken == 0 {
		t.Fatal("watchdog run recorded nothing")
	}
	cfg.Watchdog = WatchdogConfig{}
	if _, err := tr.Run(examples, cfg); err != nil {
		t.Fatal(err)
	}
	if tr.WatchdogStats() != (WatchdogStats{}) {
		t.Fatalf("plain run kept stale stats: %+v", tr.WatchdogStats())
	}
}

func TestCheckpointRingVerifyFailureFallsBack(t *testing.T) {
	net := NewNetwork([]int{2, 4, 2}, mat.NewRNG(3))
	ring := newCheckpointRing(3)
	rng := mat.NewRNG(9)

	ring.capture(net, *rng, 0)
	old := net.Weights[0].Data[0]
	net.Weights[0].Data[0] = 42
	ring.capture(net, *rng, 1)

	// Corrupt the newest checkpoint in memory (the bit-flip failure mode).
	newest := ring.entries[len(ring.entries)-1]
	newest.weights[0][0] = math.Float64frombits(math.Float64bits(newest.weights[0][0]) ^ 1)

	ck, fails := ring.restore(net)
	if fails != 1 {
		t.Fatalf("verify failures = %d, want 1", fails)
	}
	if ck == nil || ck.epoch != 0 {
		t.Fatalf("restore fell back to %+v, want epoch 0", ck)
	}
	if net.Weights[0].Data[0] != old {
		t.Fatalf("weights not restored to epoch-0 state: %v", net.Weights[0].Data[0])
	}

	// Corrupting the last remaining entry leaves nothing to restore.
	ring.entries[0].biases[0][0] = math.NaN()
	if ck, fails := ring.restore(net); ck != nil || fails != 1 {
		t.Fatalf("restore of fully corrupt ring returned %+v (fails=%d)", ck, fails)
	}
}

func TestCheckpointRingReusesBuffersWhenFull(t *testing.T) {
	net := NewNetwork([]int{2, 4, 2}, mat.NewRNG(3))
	ring := newCheckpointRing(2)
	rng := mat.NewRNG(9)
	for e := 0; e < 5; e++ {
		net.Weights[0].Data[0] = float64(e)
		ring.capture(net, *rng, e)
	}
	if len(ring.entries) != 2 {
		t.Fatalf("ring holds %d entries, want 2", len(ring.entries))
	}
	if ring.entries[0].epoch != 3 || ring.entries[1].epoch != 4 {
		t.Fatalf("ring epochs = %d,%d want 3,4", ring.entries[0].epoch, ring.entries[1].epoch)
	}
	if ck, _ := ring.restore(net); ck.epoch != 4 || net.Weights[0].Data[0] != 4 {
		t.Fatalf("restored epoch %d value %v", ck.epoch, net.Weights[0].Data[0])
	}
}

func TestCheckFinite(t *testing.T) {
	net := NewNetwork([]int{2, 4, 2}, mat.NewRNG(3))
	if err := net.CheckFinite(); err != nil {
		t.Fatalf("fresh network unhealthy: %v", err)
	}
	net.Biases[1][0] = math.Inf(1)
	err := net.CheckFinite()
	if err == nil {
		t.Fatal("Inf bias passed CheckFinite")
	}
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("CheckFinite error %v does not wrap ErrUnhealthy", err)
	}
}

func TestHealthExplosionRespectsWarmup(t *testing.T) {
	h := newHealth(HealthConfig{})
	net := NewNetwork([]int{2, 3, 2}, mat.NewRNG(1))
	// Epochs 0-1 are warmup: even a wild jump passes.
	for e, loss := range []float64{1.0, 50.0} {
		if err := h.observeEpoch(e, loss, net); err != nil {
			t.Fatalf("warmup epoch %d flagged: %v", e, err)
		}
	}
	if err := h.observeEpoch(2, 0.9, net); err != nil {
		t.Fatalf("healthy epoch flagged: %v", err)
	}
	err := h.observeEpoch(3, 100, net)
	var herr *HealthError
	if !errors.As(err, &herr) || herr.Issue != IssueExplosion {
		t.Fatalf("explosion not flagged: %v", err)
	}
}
