package nn

import (
	"errors"
	"strconv"
	"time"

	"enld/internal/mat"
	"enld/internal/obs"
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
	// Workers has no effect: every batch runs on the calling goroutine.
	// It stays only because the benchmark harness still sets it; ROADMAP
	// 1(b) deletes it in the next benchmark change.
	Workers int
}

// DefaultMixupAlpha is the paper's Beta-distribution parameter for mixup.
const DefaultMixupAlpha = 0.2

// gradChunk is the fixed per-batch gradient chunk size. Each batch's
// gradient is the chunk-ordered sum of the gradients of its gradChunk-sized
// chunks, and that partition depends only on the batch length: it defines
// the trained bits, and the golden hashes pin it. The chunk is also the
// inner dimension of the weight-gradient GemmTN.
const gradChunk = 16

// Trainer runs mini-batch training of a Network with a given optimizer.
type Trainer struct {
	Net *Network
	Opt Optimizer

	// Obs, when set, receives training metrics: epoch/batch duration and
	// batch-loss histograms.
	// Nil leaves the hot path untouched — no handles, no clock reads.
	Obs *obs.Registry

	grads *Grads // the batch gradient

	// Scratch cached across Run calls: one chunk-sized BatchScratch with its
	// per-batch repacked Wᵀ panels, packed batch-wide input/target buffers,
	// and the accumulator every chunk after the first builds its gradient
	// in. scratchNet tracks which network the cached scratch belongs to so a
	// swapped Net rebuilds it.
	scratchNet *Network
	bscratch   *BatchScratch
	batchXs    [][]float64 // row pointers of the current batch
	batchTs    [][]float64
	mixXB      *mat.Matrix // batch-wide packed mixup inputs/targets
	mixTB      *mat.Matrix
	chunkGrad  *Grads
	mixPartner []int
	mixLambda  []float64

	// perSample switches the chunks back to per-sample Backward calls — the
	// reference path the differential tests compare the batched kernels
	// against.
	perSample bool

	// obsm caches the metric handles resolved from Obs; obsReg tracks which
	// registry they belong to so a swapped Obs re-interns them.
	obsm   *trainerObs
	obsReg *obs.Registry
}

// trainerObs holds the trainer's pre-interned metric handles, so the batch
// loop does no registry lookups.
type trainerObs struct {
	epochSeconds *obs.Histogram
	batchSeconds *obs.Histogram
	batchLoss    *obs.Histogram
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
	t.ensureScratch(min(cfg.BatchSize, len(examples)))
	rng := mat.NewRNG(cfg.Seed)
	stats := make([]EpochStats, 0, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		var epochStart time.Time
		if t.obsm != nil {
			epochStart = time.Now()
		}
		st := t.epoch(examples, cfg, alpha, rng)
		if t.obsm != nil {
			t.obsm.epochSeconds.Observe(time.Since(epochStart).Seconds())
		}
		stats = append(stats, st)
	}
	return stats, nil
}

// ensureScratch sizes the batch-wide buffers for batches up to maxBatch
// samples. Scratch is cached across Run calls (the fine-grained NLD loop
// calls Run once per epoch) and invalidated when Net is swapped.
func (t *Trainer) ensureScratch(maxBatch int) {
	if t.scratchNet != t.Net {
		t.bscratch, t.batchXs, t.batchTs, t.mixXB, t.mixTB = nil, nil, nil, nil, nil
		t.chunkGrad = t.Net.NewGrads()
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
	if len(t.mixPartner) < maxBatch {
		t.mixPartner = make([]int, maxBatch)
		t.mixLambda = make([]float64, maxBatch)
	}
}

// epoch runs one pass over the data. Each batch's inputs are packed (mixed
// into the batch-wide mixup buffers when mixup is on), then its gradient is
// reduced over the fixed gradChunk partition in chunk order (reduceChunks),
// each chunk one fused forward/loss/backward pass (backwardBatchChunked).
// The result is bit-identical to the per-sample reference path: the batched
// kernels preserve the per-sample accumulation order within a chunk, and
// both paths share the partition and the reduction order.
func (t *Trainer) epoch(examples []Example, cfg TrainConfig, alpha float64, rng *mat.RNG) EpochStats {
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
		xs := t.batchXs[:len(batch)]
		ts := t.batchTs[:len(batch)]
		if cfg.Mixup {
			// Mix with a uniformly chosen partner (Eq. 1–2):
			//   x̂ = λ·x_i + (1−λ)·x_j,  ŷ = λ·y_i + (1−λ)·y_j.
			for i := range batch {
				t.mixPartner[i] = order[rng.Intn(len(order))]
				t.mixLambda[i] = rng.Beta(alpha, alpha)
			}
		}
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
		t.grads.Zero()
		var batchLoss float64
		if t.perSample {
			batchLoss = reduceChunks(len(batch), t.grads, t.chunkGrad, func(g *Grads, lo, hi int) float64 {
				var loss float64
				for i := lo; i < hi; i++ {
					loss += t.Net.Backward(g, xs[i], ts[i])
				}
				return loss
			})
		} else {
			batchLoss = t.Net.backwardBatchChunked(t.bscratch, t.grads, t.chunkGrad, xs, ts)
		}
		lossSum += batchLoss
		st.SamplesSeen += len(batch)
		t.Opt.Step(t.Net, t.grads, len(batch))
		st.BatchUpdates++
		if t.obsm != nil {
			t.obsm.batchSeconds.Observe(time.Since(batchStart).Seconds())
			t.obsm.batchLoss.Observe(batchLoss / float64(len(batch)))
		}
	}
	if st.SamplesSeen > 0 {
		st.MeanLoss = lossSum / float64(st.SamplesSeen)
	}
	return st
}

// reduceChunks accumulates into g, which the caller has cleared, the
// gradient of rows [0, n) as the chunk-ordered sum over the fixed gradChunk
// partition, and returns the chunk losses summed in the same order.
// chunk(dst, lo, hi) adds the gradient of rows [lo, hi) into dst and returns
// their summed loss. Chunk 0 accumulates straight into g — an accumulator
// that starts at +0 never reaches −0 under round-to-nearest, so 0 + c₀ equals
// c₀ bit for bit — and every later chunk accumulates from zero in tmp, which
// is then added into g.
func reduceChunks(n int, g, tmp *Grads, chunk func(dst *Grads, lo, hi int) float64) float64 {
	var loss float64
	for lo := 0; lo < n; lo += gradChunk {
		hi := min(lo+gradChunk, n)
		if lo == 0 {
			loss += chunk(g, lo, hi)
			continue
		}
		tmp.Zero()
		loss += chunk(tmp, lo, hi)
		g.Add(tmp)
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
