package baselines

import (
	"errors"
	"fmt"
	"sort"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/mat"
	"enld/internal/nn"
)

// CoTeachingConfig controls the Co-teaching baseline.
type CoTeachingConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// ForgetRate is the final fraction of each batch treated as noisy and
	// excluded from the peer's update. Zero means estimate it from the
	// disagreement rate of a warm model on D (the usual practice when the
	// true noise rate is unknown), capped at MaxForgetRate.
	ForgetRate float64
	// WarmupEpochs trains both networks on everything before selection
	// starts, and ramps the forget rate linearly afterwards.
	WarmupEpochs int
	Seed         uint64
}

// MaxForgetRate caps the estimated forget rate.
const MaxForgetRate = 0.45

// DefaultCoTeachingConfig mirrors the sizing of the other per-request
// training baselines.
func DefaultCoTeachingConfig(seed uint64) CoTeachingConfig {
	return CoTeachingConfig{
		Epochs: 16, BatchSize: 32, LR: 0.01, Momentum: 0.9,
		WarmupEpochs: 3, Seed: seed,
	}
}

// CoTeaching adapts the Co-teaching method [Han et al., NeurIPS 2018] into a
// detector: two networks train simultaneously on the label-related inventory
// plus the incremental dataset; in every batch each network selects its
// small-loss samples — the likely-clean ones — for the *peer's* parameter
// update, which keeps the networks from confirming their own mistakes. After
// training, the incremental samples whose final losses under both networks
// fall in the top forget-rate fraction are flagged noisy.
//
// Along with LossTrack and INCV, this covers the §II sample-selection family
// the paper reviews but does not evaluate.
type CoTeaching struct {
	Arch      nn.Arch
	InputDim  int
	Classes   int
	Inventory dataset.Set
	Config    CoTeachingConfig
}

// Name implements detect.Detector.
func (CoTeaching) Name() string { return "coteaching" }

// Detect implements detect.Detector.
func (c CoTeaching) Detect(set dataset.Set) (*detect.Result, error) {
	if c.InputDim < 1 || c.Classes < 2 {
		return nil, fmt.Errorf("baselines: CoTeaching dims input=%d classes=%d", c.InputDim, c.Classes)
	}
	if len(set) == 0 {
		return nil, errors.New("baselines: empty incremental dataset")
	}
	arch := c.Arch
	if arch == "" {
		arch = nn.SimResNet110
	}
	cfg := c.Config
	if cfg.Epochs <= 0 {
		cfg = DefaultCoTeachingConfig(cfg.Seed)
	}
	if cfg.BatchSize <= 1 {
		cfg.BatchSize = 32
	}
	sw := cost.StartStopwatch()
	res := detect.NewResult()
	rng := mat.NewRNG(cfg.Seed)

	related := detect.RestrictToLabels(c.Inventory, set.Labels())
	corpus := make(dataset.Set, 0, len(related)+len(set))
	corpus = append(corpus, related...)
	corpus = append(corpus, set...)
	type example struct {
		x      []float64
		target []float64
	}
	examples := make([]example, 0, len(corpus))
	for _, smp := range corpus {
		if smp.Observed == dataset.Missing {
			continue
		}
		examples = append(examples, example{x: smp.X, target: nn.OneHot(smp.Observed, c.Classes)})
	}
	if len(examples) == 0 {
		return nil, errors.New("baselines: CoTeaching has no labelled samples to train on")
	}

	netA, err := nn.Build(arch, c.InputDim, c.Classes, rng.Split())
	if err != nil {
		return nil, err
	}
	netB, err := nn.Build(arch, c.InputDim, c.Classes, rng.Split())
	if err != nil {
		return nil, err
	}
	optA := nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	optB := nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	gradsA := netA.NewGrads()
	gradsB := netB.NewGrads()

	// Per-batch buffers for the batched loss and gradient passes, reused
	// across every batch of every epoch.
	var scratchA, scratchB nn.BatchScratch
	maxBatch := cfg.BatchSize
	if maxBatch > len(examples) {
		maxBatch = len(examples)
	}
	batchXs := make([][]float64, maxBatch)
	batchTs := make([][]float64, maxBatch)
	lossesA := make([]float64, maxBatch)
	lossesB := make([]float64, maxBatch)
	selXs := make([][]float64, maxBatch)
	selTs := make([][]float64, maxBatch)

	forgetRate := cfg.ForgetRate
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Forget-rate schedule: 0 during warm-up, then linear ramp to the
		// target over the next WarmupEpochs epochs.
		target := forgetRate
		if target <= 0 && epoch >= cfg.WarmupEpochs {
			// Estimate once, right after warm-up, from netA's disagreement
			// on the incremental dataset.
			forgetRate = c.estimateForgetRate(netA, set, res)
			target = forgetRate
		}
		rate := 0.0
		if epoch >= cfg.WarmupEpochs && cfg.WarmupEpochs > 0 {
			ramp := float64(epoch-cfg.WarmupEpochs+1) / float64(cfg.WarmupEpochs)
			if ramp > 1 {
				ramp = 1
			}
			rate = target * ramp
		} else if cfg.WarmupEpochs == 0 {
			rate = target
		}

		order := rng.Perm(len(examples))
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			keep := len(batch) - int(rate*float64(len(batch)))
			if keep < 1 {
				keep = 1
			}
			xs := batchXs[:len(batch)]
			ts := batchTs[:len(batch)]
			for n, idx := range batch {
				xs[n], ts[n] = examples[idx].x, examples[idx].target
			}
			// One batched forward per network scores the whole batch.
			netA.LossBatch(&scratchA, xs, ts, lossesA[:len(batch)])
			netB.LossBatch(&scratchB, xs, ts, lossesB[:len(batch)])
			res.Meter.ForwardPasses += 2 * int64(len(batch))
			selA := smallestK(lossesA[:len(batch)], keep) // A's picks train B
			selB := smallestK(lossesB[:len(batch)], keep) // B's picks train A
			// Batched backward over each peer's picks, in selection order —
			// bit-identical to the per-sample Backward sequence it replaces.
			gradsA.Zero()
			for m, n := range selB {
				idx := batch[n]
				selXs[m], selTs[m] = examples[idx].x, examples[idx].target
			}
			netA.BackwardBatch(&scratchA, gradsA, selXs[:len(selB)], selTs[:len(selB)])
			res.Meter.TrainSampleVisits += int64(len(selB))
			optA.Step(netA, gradsA, len(selB))
			gradsB.Zero()
			for m, n := range selA {
				idx := batch[n]
				selXs[m], selTs[m] = examples[idx].x, examples[idx].target
			}
			netB.BackwardBatch(&scratchB, gradsB, selXs[:len(selA)], selTs[:len(selA)])
			res.Meter.TrainSampleVisits += int64(len(selA))
			optB.Step(netB, gradsB, len(selA))
			res.Meter.ParamUpdates += 2
		}
	}

	// Detection: rank incremental samples by combined final loss; the top
	// forget-rate fraction is flagged noisy. Missing labels are flagged
	// directly.
	type ranked struct {
		id   int
		loss float64
	}
	var rankedSamples []ranked
	finalXs := make([][]float64, 0, len(set))
	finalTs := make([][]float64, 0, len(set))
	finalIDs := make([]int, 0, len(set))
	for _, smp := range set {
		if smp.Observed == dataset.Missing {
			res.MarkNoisy(smp.ID)
			continue
		}
		finalXs = append(finalXs, smp.X)
		finalTs = append(finalTs, nn.OneHot(smp.Observed, c.Classes))
		finalIDs = append(finalIDs, smp.ID)
	}
	finalA := netA.LossesBatch(finalXs, finalTs)
	finalB := netB.LossesBatch(finalXs, finalTs)
	res.Meter.ForwardPasses += 2 * int64(len(finalXs))
	for i, id := range finalIDs {
		rankedSamples = append(rankedSamples, ranked{id: id, loss: finalA[i] + finalB[i]})
	}
	sort.Slice(rankedSamples, func(i, j int) bool {
		if rankedSamples[i].loss != rankedSamples[j].loss {
			return rankedSamples[i].loss > rankedSamples[j].loss
		}
		return rankedSamples[i].id < rankedSamples[j].id
	})
	flag := int(forgetRate * float64(len(rankedSamples)))
	for n, r := range rankedSamples {
		if n < flag {
			res.MarkNoisy(r.id)
		} else {
			res.MarkClean(r.id)
		}
	}
	res.Process = sw.Elapsed()
	return res, nil
}

// estimateForgetRate uses the warm model's disagreement rate on the
// incremental dataset as a noise-rate proxy, capped at MaxForgetRate.
func (c CoTeaching) estimateForgetRate(model *nn.Network, set dataset.Set, res *detect.Result) float64 {
	labels := make([]int, 0, len(set))
	xs := make([][]float64, 0, len(set))
	for _, smp := range set {
		if smp.Observed == dataset.Missing {
			continue
		}
		labels = append(labels, smp.Observed)
		xs = append(xs, smp.X)
	}
	if len(xs) == 0 {
		return MaxForgetRate
	}
	disagree := 0
	for i, pred := range model.PredictBatch(xs, 1) {
		res.Meter.ForwardPasses++
		if pred != labels[i] {
			disagree++
		}
	}
	rate := float64(disagree) / float64(len(xs))
	if rate > MaxForgetRate {
		rate = MaxForgetRate
	}
	if rate < 0.05 {
		rate = 0.05
	}
	return rate
}

// smallestK returns the indices of the k smallest values, ties broken by
// index for determinism.
func smallestK(values []float64, k int) []int {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] < values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
