package nn

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"enld/internal/mat"
	"enld/internal/obs"
	"enld/internal/parallel"
)

// Example is one training example: an input vector and a target distribution
// over classes. Hard labels are encoded one-hot with OneHot; mixup produces
// two-hot soft targets.
//
// Both slices are read-only to everything that consumes examples. Target in
// particular may be shared: dataset.ToExamples hands every example of a class
// the same one-hot row, so writing through one Target would corrupt the
// others (the trainer mixes into its own buffers, never in place).
type Example struct {
	X      []float64
	Target []float64
}

// OneHot returns a one-hot target vector of the given length.
// It panics if label is out of range.
func OneHot(label, classes int) []float64 {
	if label < 0 || label >= classes {
		panic("nn: OneHot label out of range")
	}
	t := make([]float64, classes)
	t[label] = 1
	return t
}

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// Mixup enables mixup augmentation (Eq. 1–2) with Beta(MixupAlpha,
	// MixupAlpha) mixing coefficients. The paper fixes α = 0.2.
	Mixup      bool
	MixupAlpha float64
	// Seed drives the shuffle order and mixup draws.
	Seed uint64
	// Workers bounds the data-parallel gradient workers per batch
	// (0 = all cores). Trained weights are bit-identical at every worker
	// count: gradients accumulate over a fixed chunk partition of each batch
	// and reduce in chunk order, and all randomness (shuffle, mixup draws)
	// is consumed sequentially outside the parallel section.
	Workers int
	// Watchdog enables the numerical-health watchdog with checkpoint
	// rollback (see WatchdogConfig). The zero value disables it and leaves
	// Run's floating-point stream untouched.
	Watchdog WatchdogConfig
	// AfterEpoch, when set, is called at the end of each healthy epoch with
	// the epoch index and the live network — after the watchdog's health
	// evaluation and checkpoint capture, so anything it perturbs is caught
	// by the next epoch's checks and rolled back to the clean checkpoint.
	// Fault-injection tests use it to corrupt state mid-training; it must be
	// a deterministic function of its arguments for the rollback determinism
	// contract to hold.
	AfterEpoch func(epoch int, net *Network)
}

// DefaultMixupAlpha is the paper's Beta-distribution parameter for mixup.
const DefaultMixupAlpha = 0.2

// gradChunk is the fixed per-batch gradient chunk size. The partition of a
// batch into gradChunk-sized chunks depends only on the batch length, so the
// chunk-order reduction yields the same floating-point sum no matter how
// many workers processed the chunks. The chunk is also the inner dimension of
// the weight-gradient GemmTN, so it trades register-tile amortization against
// intra-batch parallelism: 16 keeps two chunks per default 32-sample batch
// while giving each GEMM twice the accumulation depth of the previous 8.
const gradChunk = 16

// Trainer runs mini-batch training of a Network with a given optimizer.
type Trainer struct {
	Net *Network
	Opt Optimizer

	// Obs, when set, receives training metrics: epoch/batch duration and
	// batch-loss histograms plus watchdog trip/rollback/checkpoint counters.
	// Nil leaves the hot path untouched — no handles, no clock reads.
	Obs *obs.Registry

	grads *Grads

	// Data-parallel scratch, cached across Run calls: one batch-wide
	// BatchScratch (the fused pass's gradient chunks work on disjoint row
	// ranges of it, against its per-batch repacked Wᵀ panels), packed
	// batch-wide input/target buffers, and one gradient accumulator and loss
	// cell per batch chunk. scratchNet tracks which network the cached scratch
	// belongs to so a swapped Net rebuilds it.
	scratchNet *Network
	bscratch   *BatchScratch
	batchXs    [][]float64 // row pointers of the current batch
	batchTs    [][]float64
	mixXB      *mat.Matrix // batch-wide packed mixup inputs/targets
	mixTB      *mat.Matrix
	chunkGrads []*Grads
	chunkLoss  []float64
	mixPartner []int
	mixLambda  []float64

	// perSample switches the chunk workers back to per-sample Backward calls
	// on replica networks — the reference path the differential tests compare
	// the batched kernels against.
	perSample bool
	replicas  []*Network
	mixX      [][]float64 // per-worker single-sample mixup buffers
	mixT      [][]float64

	// wstats reports what the watchdog did during the last Run.
	wstats WatchdogStats

	// obsm caches the metric handles resolved from Obs; obsReg tracks which
	// registry they belong to so a swapped Obs re-interns them.
	obsm   *trainerObs
	obsReg *obs.Registry

	// pool caches the instrumented worker pool across Run calls:
	// fine-grained NLD calls Run once per epoch, and instrumenting a fresh
	// pool costs two labelled registry lookups each time.
	pool parallel.PoolCache
}

// trainerObs holds the trainer's pre-interned metric handles, so the batch
// loop does no registry lookups.
type trainerObs struct {
	epochSeconds *obs.Histogram
	batchSeconds *obs.Histogram
	batchLoss    *obs.Histogram
	trips        *obs.Counter
	rollbacks    *obs.Counter
	checkpoints  *obs.Counter
}

// lossBuckets spans the cross-entropy losses seen in practice: from
// near-converged (≤0.01 nats/sample) to diverging (>10).
var lossBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ensureObs resolves the metric handles for the current Obs registry.
func (t *Trainer) ensureObs() {
	if t.Obs == nil {
		t.obsm, t.obsReg = nil, nil
		return
	}
	if t.obsReg == t.Obs {
		return
	}
	t.obsm = &trainerObs{
		epochSeconds: t.Obs.Histogram("enld_train_epoch_seconds",
			"Wall-clock duration of one training epoch.", obs.DefBuckets),
		batchSeconds: t.Obs.Histogram("enld_train_batch_seconds",
			"Wall-clock duration of one mini-batch update.", obs.DefBuckets),
		batchLoss: t.Obs.Histogram("enld_train_batch_loss",
			"Mean per-sample cross-entropy loss of each mini-batch.", lossBuckets),
		trips: t.Obs.Counter("enld_train_watchdog_trips_total",
			"Failed numerical-health checks during training."),
		rollbacks: t.Obs.Counter("enld_train_rollbacks_total",
			"Checkpoint rollbacks performed by the training watchdog."),
		checkpoints: t.Obs.Counter("enld_train_checkpoints_total",
			"Verified checkpoints captured by the training watchdog."),
	}
	t.obsReg = t.Obs
}

// NewTrainer returns a trainer bound to net and opt.
func NewTrainer(net *Network, opt Optimizer) *Trainer {
	return &Trainer{
		Net:   net,
		Opt:   opt,
		grads: net.NewGrads(),
	}
}

// EpochStats reports what happened during one pass over the data.
type EpochStats struct {
	MeanLoss     float64
	SamplesSeen  int
	BatchUpdates int
}

// Run trains for cfg.Epochs passes over examples and returns per-epoch stats.
// It returns an error if the example set is empty or malformed.
func (t *Trainer) Run(examples []Example, cfg TrainConfig) ([]EpochStats, error) {
	if len(examples) == 0 {
		return nil, errors.New("nn: Run with no examples")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	alpha := cfg.MixupAlpha
	if alpha <= 0 {
		alpha = DefaultMixupAlpha
	}
	for i, ex := range examples {
		if len(ex.X) != t.Net.InputDim() || len(ex.Target) != t.Net.Classes() {
			return nil, errors.New("nn: malformed example at index " + strconv.Itoa(i))
		}
	}
	t.ensureObs()
	pool := t.pool.Get(cfg.Workers, t.Obs, "train")
	maxBatch := cfg.BatchSize
	if maxBatch > len(examples) {
		maxBatch = len(examples)
	}
	t.ensureScratch(pool.Workers(), maxBatch)
	if cfg.Watchdog.Enabled {
		return t.runWatchdog(examples, cfg, alpha, pool)
	}
	t.wstats = WatchdogStats{}
	rng := mat.NewRNG(cfg.Seed)
	stats := make([]EpochStats, 0, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		var epochStart time.Time
		if t.obsm != nil {
			epochStart = time.Now()
		}
		st, _ := t.epoch(examples, cfg, alpha, rng, pool, nil, e)
		if t.obsm != nil {
			t.obsm.epochSeconds.Observe(time.Since(epochStart).Seconds())
		}
		if cfg.AfterEpoch != nil {
			cfg.AfterEpoch(e, t.Net)
		}
		stats = append(stats, st)
	}
	return stats, nil
}

// WatchdogStats reports what the watchdog did during the last Run. It is
// zero when the last Run had the watchdog disabled.
func (t *Trainer) WatchdogStats() WatchdogStats { return t.wstats }

// runWatchdog is Run with the numerical-health watchdog engaged. The epoch
// loop is wrapped in a detect → rollback → decay-LR → retry cycle:
//
//   - every batch, the summed chunk loss (the BackwardBatch reduction
//     output) is checked for NaN/±Inf, and at the configured cadence the
//     reduced gradient and the updated weights are scanned;
//   - after each healthy epoch (at the checkpoint cadence) the parameters
//     and RNG state go into a checksummed ring of good checkpoints;
//   - on a failed check the newest verified checkpoint is restored, the
//     optimizer state is reset and its learning rate decayed, and training
//     resumes from the checkpoint's epoch — up to MaxRollbacks times before
//     Run gives up and returns the pending ErrUnhealthy.
//
// Recovery is deterministic: the checkpoint carries the RNG state, health
// decisions depend only on chunk-ordered reductions (bit-identical at every
// worker count), so the same seed yields the same recovery sequence and the
// same final weights no matter how many workers ran the batches.
func (t *Trainer) runWatchdog(examples []Example, cfg TrainConfig, alpha float64, pool *parallel.Pool) ([]EpochStats, error) {
	wd := cfg.Watchdog.normalized()
	h := newHealth(wd.Health)
	ring := newCheckpointRing(wd.RingSize)
	rng := mat.NewRNG(cfg.Seed)
	t.wstats = WatchdogStats{LastUnhealthyEpoch: -1}

	// The initial checkpoint (epoch -1) guarantees a rollback target even
	// when training goes bad before the first epoch completes.
	ring.capture(t.Net, *rng, -1)
	t.wstats.CheckpointsTaken++
	if t.obsm != nil {
		t.obsm.checkpoints.Inc()
	}

	stats := make([]EpochStats, 0, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		var epochStart time.Time
		if t.obsm != nil {
			epochStart = time.Now()
		}
		st, herr := t.epoch(examples, cfg, alpha, rng, pool, h, e)
		if herr == nil {
			herr = h.observeEpoch(e, st.MeanLoss, t.Net)
		}
		if t.obsm != nil {
			t.obsm.epochSeconds.Observe(time.Since(epochStart).Seconds())
		}
		t.wstats.HealthChecks = h.checks
		if herr != nil {
			t.wstats.LastUnhealthyEpoch = e
			if t.obsm != nil {
				t.obsm.trips.Inc()
			}
			if t.wstats.Rollbacks >= wd.MaxRollbacks {
				return stats, fmt.Errorf("nn: rollback budget (%d) exhausted: %w", wd.MaxRollbacks, herr)
			}
			ck, fails := ring.restore(t.Net)
			t.wstats.VerifyFailures += fails
			if ck == nil {
				return stats, fmt.Errorf("nn: no verified checkpoint to roll back to: %w", herr)
			}
			t.wstats.Rollbacks++
			if t.obsm != nil {
				t.obsm.rollbacks.Inc()
			}
			t.Opt.Reset()
			if s, ok := t.Opt.(LRScaler); ok {
				s.ScaleLR(wd.LRDecay)
			}
			*rng = ck.rng
			stats = stats[:ck.epoch+1]
			e = ck.epoch
			continue
		}
		stats = append(stats, st)
		if (e+1)%wd.CheckpointEvery == 0 {
			ring.capture(t.Net, *rng, e)
			t.wstats.CheckpointsTaken++
			if t.obsm != nil {
				t.obsm.checkpoints.Inc()
			}
		}
		// The hook runs after the checkpoint is captured, so any state it
		// perturbs (fault injection in tests, external weight surgery) is
		// caught by the next epoch's checks and rolled back to the clean,
		// training-produced state.
		if cfg.AfterEpoch != nil {
			cfg.AfterEpoch(e, t.Net)
		}
	}
	return stats, nil
}

// ensureScratch sizes the batch-wide scratch and per-chunk accumulators
// for batches up to maxBatch samples. Scratch is cached across Run calls (the
// fine-grained NLD loop calls Run once per epoch) and invalidated when Net
// is swapped.
func (t *Trainer) ensureScratch(workers, maxBatch int) {
	if t.scratchNet != t.Net {
		t.bscratch, t.batchXs, t.batchTs, t.mixXB, t.mixTB = nil, nil, nil, nil, nil
		t.replicas, t.chunkGrads, t.mixX, t.mixT = nil, nil, nil, nil
		t.scratchNet = t.Net
	}
	if t.bscratch == nil {
		t.bscratch = &BatchScratch{}
	}
	if len(t.batchXs) < maxBatch {
		t.batchXs = make([][]float64, maxBatch)
		t.batchTs = make([][]float64, maxBatch)
		t.mixXB = mat.NewMatrix(maxBatch, t.Net.InputDim())
		t.mixTB = mat.NewMatrix(maxBatch, t.Net.Classes())
	}
	if t.perSample {
		if len(t.replicas) == 0 {
			// Worker 0 is the network itself, so the single-worker path runs
			// on exactly the buffers a sequential trainer would use.
			t.replicas = append(t.replicas, t.Net)
		}
		for len(t.replicas) < workers {
			t.replicas = append(t.replicas, t.Net.Replica())
		}
		for len(t.mixX) < workers {
			t.mixX = append(t.mixX, make([]float64, t.Net.InputDim()))
			t.mixT = append(t.mixT, make([]float64, t.Net.Classes()))
		}
	}
	maxChunks := (maxBatch + gradChunk - 1) / gradChunk
	for len(t.chunkGrads) < maxChunks {
		t.chunkGrads = append(t.chunkGrads, t.Net.NewGrads())
	}
	if len(t.chunkLoss) < maxChunks {
		t.chunkLoss = make([]float64, maxChunks)
	}
	if len(t.mixPartner) < maxBatch {
		t.mixPartner = make([]int, maxBatch)
		t.mixLambda = make([]float64, maxBatch)
	}
}

// epoch runs one pass over the data. Each batch is one fused pass
// (backwardBatchChunked): every fixed gradChunk-sized row range runs forward,
// loss and backward inside a single pool task against per-batch packed Wᵀ
// panels, accumulating into its own per-chunk buffer, and the buffers are
// then reduced in index order. The result is bit-identical to a one-worker
// per-sample run: the batched kernels preserve the per-sample accumulation
// order within a chunk (see backwardBatchChunked), the chunk partition and
// reduction order never depend on the worker count, and the RNG (shuffle
// and mixup draws) is consumed sequentially before the parallel section.
//
// With a non-nil health checker, each batch's reduced loss is validated and
// the reduced gradient and updated weights are scanned at the configured
// cadence; the first failed check aborts the epoch with a HealthError.
// Health decisions read only chunk-ordered reductions, so they are
// bit-identical at every worker count.
func (t *Trainer) epoch(examples []Example, cfg TrainConfig, alpha float64, rng *mat.RNG, pool *parallel.Pool, h *health, e int) (EpochStats, error) {
	order := rng.Perm(len(examples))
	var st EpochStats
	var lossSum float64
	for start := 0; start < len(order); start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > len(order) {
			end = len(order)
		}
		batch := order[start:end]
		var batchStart time.Time
		if t.obsm != nil {
			batchStart = time.Now()
		}
		if cfg.Mixup {
			// Mix with a uniformly chosen partner (Eq. 1–2):
			//   x̂ = λ·x_i + (1−λ)·x_j,  ŷ = λ·y_i + (1−λ)·y_j.
			for i := range batch {
				t.mixPartner[i] = order[rng.Intn(len(order))]
				t.mixLambda[i] = rng.Beta(alpha, alpha)
			}
		}
		nChunks := (len(batch) + gradChunk - 1) / gradChunk
		if t.perSample {
			pool.ForEachChunk(len(batch), gradChunk, func(worker, lo, hi int) {
				c := lo / gradChunk
				g := t.chunkGrads[c]
				g.Zero()
				t.chunkLoss[c] = t.perSampleChunk(g, examples, batch, cfg.Mixup, worker, lo, hi)
			})
		} else {
			// Pack the batch's row pointers (mixing into the batch-wide mixup
			// buffers) sequentially, then run the fused pass — one pool task
			// per gradient chunk.
			xs := t.batchXs[:len(batch)]
			ts := t.batchTs[:len(batch)]
			for i, idx := range batch {
				ex := examples[idx]
				if cfg.Mixup {
					partner := examples[t.mixPartner[i]]
					mx, mt := t.mixXB.Row(i), t.mixTB.Row(i)
					mat.Lerp(mx, ex.X, partner.X, t.mixLambda[i])
					mat.Lerp(mt, ex.Target, partner.Target, t.mixLambda[i])
					xs[i], ts[i] = mx, mt
				} else {
					xs[i], ts[i] = ex.X, ex.Target
				}
			}
			t.Net.backwardBatchChunked(t.bscratch, t.chunkGrads, t.chunkLoss, xs, ts, gradChunk, pool)
		}
		t.grads.Zero()
		var batchLoss float64
		for c := 0; c < nChunks; c++ {
			t.grads.Add(t.chunkGrads[c])
			batchLoss += t.chunkLoss[c]
		}
		lossSum += batchLoss
		st.SamplesSeen += len(batch)
		t.Opt.Step(t.Net, t.grads, len(batch))
		st.BatchUpdates++
		if t.obsm != nil {
			t.obsm.batchSeconds.Observe(time.Since(batchStart).Seconds())
			t.obsm.batchLoss.Observe(batchLoss / float64(len(batch)))
		}
		if h != nil {
			if err := h.checkBatch(e, st.BatchUpdates, batchLoss, t.grads, t.Net); err != nil {
				return st, err
			}
		}
	}
	if st.SamplesSeen > 0 {
		st.MeanLoss = lossSum / float64(st.SamplesSeen)
	}
	return st, nil
}

// perSampleChunk is the pre-batching reference path: per-sample Backward
// calls on a replica network, accumulating the chunk's gradient and loss one
// sample at a time. The differential tests flip Trainer.perSample to prove
// the batched path reproduces it bit for bit.
func (t *Trainer) perSampleChunk(g *Grads, examples []Example, batch []int, mixup bool, worker, lo, hi int) float64 {
	net := t.replicas[worker]
	var loss float64
	for i := lo; i < hi; i++ {
		ex := examples[batch[i]]
		if mixup {
			partner := examples[t.mixPartner[i]]
			mat.Lerp(t.mixX[worker], ex.X, partner.X, t.mixLambda[i])
			mat.Lerp(t.mixT[worker], ex.Target, partner.Target, t.mixLambda[i])
			loss += net.Backward(g, t.mixX[worker], t.mixT[worker])
		} else {
			loss += net.Backward(g, ex.X, ex.Target)
		}
	}
	return loss
}

// MeanLoss evaluates the average cross-entropy loss of net on examples
// without updating parameters. Losses are computed in batched chunks and
// summed in input order, bit-identical to a per-sample loop.
func MeanLoss(net *Network, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	var s BatchScratch
	xs := make([][]float64, len(examples))
	ts := make([][]float64, len(examples))
	for i, ex := range examples {
		xs[i], ts[i] = ex.X, ex.Target
	}
	losses := make([]float64, batchChunk)
	var sum float64
	for lo := 0; lo < len(examples); lo += batchChunk {
		hi := min(lo+batchChunk, len(examples))
		net.LossBatch(&s, xs[lo:hi], ts[lo:hi], losses[:hi-lo])
		for _, l := range losses[:hi-lo] {
			sum += l
		}
	}
	return sum / float64(len(examples))
}

// Accuracy returns the fraction of examples whose predicted class matches
// the argmax of their target distribution.
func Accuracy(net *Network, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	var s BatchScratch
	xs := make([][]float64, len(examples))
	for i, ex := range examples {
		xs[i] = ex.X
	}
	correct := 0
	for lo := 0; lo < len(examples); lo += batchChunk {
		hi := min(lo+batchChunk, len(examples))
		net.ForwardBatch(&s, xs[lo:hi])
		logits := s.Logits()
		for r := 0; r < hi-lo; r++ {
			if mat.ArgMax(logits.Row(r)) == mat.ArgMax(examples[lo+r].Target) {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(examples))
}
