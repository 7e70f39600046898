package core

import (
	"errors"
	"fmt"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/mat"
	"enld/internal/nn"
	"enld/internal/obs"
	"enld/internal/sampling"
)

// Config controls fine-grained noisy label detection (Algorithm 3).
type Config struct {
	// K is the contrastive-samples-size hyperparameter (k in Algorithm 2):
	// each sampling pass selects k contrastive samples per ambiguous sample.
	K int
	// Iterations is the training-iteration count t; Steps is the number of
	// training/selection steps s within each iteration. The paper uses
	// s = 5 with t = 5 (EMNIST) or t = 17 (CIFAR-100, Tiny-ImageNet).
	Iterations int
	Steps      int
	// WarmupEpochs trains the cloned model on the initial contrastive set
	// before the iterations start, keeping the snapshot with the best
	// validation accuracy on D (the warming-up process). The paper uses 2.
	WarmupEpochs int

	// Fine-tuning hyperparameters.
	FinetuneLR float64
	Momentum   float64
	BatchSize  int

	// Strategy selects contrastive samples; nil means the paper's
	// contrastive sampling. Substituting a different strategy reproduces
	// the §V-D comparison (Random/HC/LC/Entropy/Pseudo) and the ENLD-1 and
	// ENLD-4 ablations.
	Strategy sampling.Strategy

	// DisableMajorityVoting (ENLD-2) adds a sample to the clean set as soon
	// as a single step's prediction matches the observed label, instead of
	// requiring a strict majority of the iteration's steps.
	DisableMajorityVoting bool
	// DisableCleanMerge (ENLD-3) skips merging the selected clean samples
	// into the contrastive set (drops line 21's C = C ∪ S).
	DisableCleanMerge bool

	// AutoStop ends the iteration loop early once the clean set has not
	// changed for two consecutive iterations. §V-C observes that high noise
	// rates converge (and flatten) quickly, recommending a smaller t there;
	// auto-stop implements that recommendation without hand-tuning t per
	// noise regime. Iterations remains the upper bound.
	AutoStop bool

	Seed uint64
}

// DefaultConfig returns the paper's hyperparameters: k = 3, s = 5, warming
// up for 2 epochs. Iterations defaults to 5; harder tasks use 17 (§V-A6).
func DefaultConfig(seed uint64) Config {
	return Config{
		K:            3,
		Iterations:   5,
		Steps:        5,
		WarmupEpochs: 2,
		FinetuneLR:   0.01,
		Momentum:     0.9,
		BatchSize:    32,
		Seed:         seed,
	}
}

// voteThreshold is the strict majority of an iteration's s steps a labelled
// sample must agree in to join the clean set.
func (c Config) voteThreshold() int { return c.Steps/2 + 1 }

// IterationSnapshot records the detector's state after one iteration of
// fine-grained NLD; the Fig. 9 (metric trajectories) and Fig. 13(b)
// (ambiguous-sample counts) experiments consume these.
type IterationSnapshot struct {
	// Noisy is the noisy set N as of this iteration's end.
	Noisy map[int]bool
	// AmbiguousCount is |A| after re-scoring with the fine-tuned model.
	AmbiguousCount int
	// ContrastiveSize is |C| used for the next iteration's training.
	ContrastiveSize int
}

// FullResult extends the common detection result with ENLD-specific outputs.
type FullResult struct {
	*detect.Result
	// Snapshots holds one entry per completed iteration.
	Snapshots []IterationSnapshot
	// Iterations is the number of iterations that ran: Config.Iterations,
	// or fewer when AutoStop ended the loop early.
	Iterations int
	// Stop says why the loop ended after Iterations iterations.
	Stop StopReason
	// SelectedInventory is S_c: the IDs of inventory (I_c) samples judged
	// clean in every iteration that ran — input to Algorithm 4's model
	// update.
	SelectedInventory map[int]bool
	// PseudoLabels maps the ID of each missing-label sample to the label
	// chosen by majority vote over all steps' predictions (§V-H).
	PseudoLabels map[int]int
}

// StopReason says why the iteration loop of a detection ended.
type StopReason int

const (
	// StopFixed: the loop ran the fixed t = Config.Iterations iterations.
	StopFixed StopReason = iota
	// StopStable: AutoStop ended the loop because the clean set had not
	// changed for two consecutive iterations.
	StopStable
)

// String returns "fixed" or "stable".
func (s StopReason) String() string {
	if s == StopStable {
		return "stable"
	}
	return "fixed"
}

// ENLD is the paper's detector. It is stateless across Detect calls except
// for the shared Platform; each call clones the general model.
type ENLD struct {
	Platform *Platform
	Config   Config
}

// Name implements detect.Detector.
func (e *ENLD) Name() string { return "enld" }

// Detect implements detect.Detector. It runs the same detection as
// DetectFull without materialising the per-iteration snapshots nobody reads.
func (e *ENLD) Detect(d dataset.Set) (*detect.Result, error) {
	full, err := e.detect(d, false)
	if err != nil {
		return nil, err
	}
	return full.Result, nil
}

// DetectFull runs fine-grained noisy label detection with contrastive
// sampling (Algorithms 2 and 3) and returns the extended result.
func (e *ENLD) DetectFull(d dataset.Set) (*FullResult, error) {
	return e.detect(d, true)
}

// detect is DetectFull; snapshots selects whether FullResult.Snapshots is
// filled (one noisy-ID map per iteration) or left nil.
func (e *ENLD) detect(d dataset.Set, snapshots bool) (*FullResult, error) {
	if e.Platform == nil {
		return nil, errors.New("core: ENLD needs a platform")
	}
	if len(d) == 0 {
		return nil, errors.New("core: empty incremental dataset")
	}
	cfg := e.Config
	if cfg.K <= 0 || cfg.Iterations <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("core: invalid config k=%d t=%d s=%d", cfg.K, cfg.Iterations, cfg.Steps)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = sampling.Contrastive{}
	}

	sw := cost.StartStopwatch()
	res := &FullResult{
		Result:            detect.NewResult(),
		SelectedInventory: make(map[int]bool),
		PseudoLabels:      make(map[int]int),
	}
	rng := mat.NewRNG(cfg.Seed)
	classes := e.Platform.Classes()

	// I' = inventory candidates restricted to label(D) (Algorithm 3 line 3).
	iPrime := detect.RestrictToLabels(e.Platform.Ic, d.Labels())

	model := e.Platform.Model.Clone() // θ'
	trainer := nn.NewTrainer(model, nn.NewSGD(cfg.FinetuneLR, cfg.Momentum, 0))
	trainer.Obs = e.Platform.Obs

	// Initial ambiguous set and contrastive samples under θ (Algorithm 1
	// lines 5–7).
	run := &nldRun{
		e: e, cfg: cfg, strategy: strategy, rng: rng,
		d: d, iPrime: iPrime,
		model: model, trainer: trainer, res: res,
		obs:          e.Platform.Obs,
		eval:         nn.NewEvaluator(model),
		targets:      make([][]float64, classes),
		classConfSum: make([]float64, classes),
		classAgree:   make([]int, classes),
		req: sampling.Request{
			Cond: e.Platform.Cond, K: cfg.K, RNG: rng,
			Meter: &res.Meter, Obs: e.Platform.Obs,
		},
	}
	if err := run.resample(); err != nil {
		return nil, err
	}
	if err := run.warmup(); err != nil {
		return nil, err
	}

	pseudoVotes := make(map[int][]int) // d-index → per-class vote counts
	cleanIDs := make(map[int]bool)
	countC := make([]int, len(iPrime))

	voteThreshold := cfg.voteThreshold()
	stableIters := 0
	count := make([]int, len(d))
	for iter := 0; iter < cfg.Iterations; iter++ {
		clear(count)
		cleanBefore := len(cleanIDs)
		for step := 0; step < cfg.Steps; step++ {
			if err := run.trainEpoch(); err != nil {
				return nil, err
			}
			// Selection pass: compare predictions with observed labels, for
			// the samples whose vote can still change an output.
			voteSpan := run.obs.StartSpan("detect/vote")
			rows := run.openVotes(cleanIDs, count, cfg.Steps-step)
			if len(rows) > 0 {
				run.preds = run.eval.PredictInto(run.preds, run.voteXS)
				res.Meter.ForwardPasses += int64(len(rows))
			}
			for k, i := range rows {
				smp, pred := d[i], run.preds[k]
				if smp.Observed == dataset.Missing {
					votes := pseudoVotes[i]
					if votes == nil {
						votes = make([]int, classes)
						pseudoVotes[i] = votes
					}
					votes[pred]++
					continue
				}
				if pred == smp.Observed {
					count[i]++
					if cfg.DisableMajorityVoting {
						cleanIDs[smp.ID] = true
					}
				}
			}
			voteSpan.End()
		}
		if !cfg.DisableMajorityVoting {
			for i, c := range count {
				if c >= voteThreshold {
					cleanIDs[d[i].ID] = true
				}
			}
		}

		// Sample update: re-score D and I' under the fine-tuned model, track
		// inventory samples that stay high-quality, then re-sample C.
		if err := run.resample(); err != nil {
			return nil, err
		}
		for _, idx := range run.hqIdx {
			countC[idx]++
		}
		res.Iterations = iter + 1
		if !cfg.DisableCleanMerge {
			run.mergeClean(cleanIDs)
		}

		if snapshots {
			res.Snapshots = append(res.Snapshots, IterationSnapshot{
				Noisy:           noisyOf(d, cleanIDs),
				AmbiguousCount:  len(run.ambIdx),
				ContrastiveSize: len(run.contrastive),
			})
		}

		if cfg.AutoStop {
			// The noisy set is D's IDs minus cleanIDs, and cleanIDs only ever
			// gains IDs of D, so two consecutive iterations' noisy sets are
			// equal exactly when this iteration added no clean ID — no need
			// to materialise and compare the sets.
			if iter >= 1 && len(cleanIDs) == cleanBefore {
				stableIters++
			} else {
				stableIters = 0
			}
			if stableIters >= 2 {
				res.Stop = StopStable
				break
			}
		}
	}

	// Final partition of D.
	for _, smp := range d {
		if cleanIDs[smp.ID] {
			res.MarkClean(smp.ID)
		} else {
			res.MarkNoisy(smp.ID)
		}
	}
	// Pseudo labels for missing-label samples by majority vote (§V-H).
	for i, votes := range pseudoVotes {
		res.PseudoLabels[d[i].ID] = mat.ArgMax(intsToFloats(votes))
	}
	// Data selection of inventory: stringent criterion — judged high-quality
	// in every iteration that ran (count == t, or the iterations AutoStop
	// left).
	for i, c := range countC {
		if c == res.Iterations {
			res.SelectedInventory[iPrime[i].ID] = true
		}
	}
	res.Process = sw.Elapsed()
	return res, nil
}

// nldRun carries the per-request mutable state of fine-grained NLD so the
// phases above stay readable.
type nldRun struct {
	e        *ENLD
	cfg      Config
	strategy sampling.Strategy
	rng      *mat.RNG

	d      dataset.Set
	iPrime dataset.Set

	model   *nn.Network
	trainer *nn.Trainer
	res     *FullResult
	obs     *obs.Registry

	// eval is the run's inference workspace over model: every float64
	// forward pass of the call — re-scoring, the per-step vote, warm-up
	// validation — goes through it, so after the first pass of each shape the
	// call's inference allocates nothing. It is built per Detect call and
	// dies with it: nothing is retained on the ENLD or the Platform, which
	// stay safe to share between concurrent calls. preds is the prediction
	// buffer the vote and validation passes take turns with.
	eval  *nn.Evaluator
	preds []int
	// voteIdx and voteXS are openVotes' reused lists of the D rows a vote
	// pass forwards.
	voteIdx []int
	voteXS  [][]float64
	// dScores and iScores are the re-scoring outputs of D and I′. They are
	// two buffers, not one, because resample reads both at once; the feature
	// rows it hands the strategy alias them and are dead by the next resample.
	dScores, iScores detect.Scores

	// req is the sampling request, refilled in place by every resample so
	// its slices and its instrumented k-NN pool are built once per call.
	req sampling.Request

	// examples and targets are trainEpoch's reused conversion of the
	// contrastive set (see dataset.AppendExamples).
	examples []nn.Example
	targets  [][]float64

	// classConfSum and classAgree are highQualityFiltered's per-class
	// confidence sums and counts, cleared and refilled by every resample.
	classConfSum []float64
	classAgree   []int

	// Refreshed by resample:
	ambIdx      []int       // indices of D in the ambiguous set A
	hqIdx       []int       // indices of I' in the filtered high-quality set H'
	contrastive dataset.Set // current contrastive set C

	// Cached validation split over D's labelled samples. D never changes
	// within a run, so the feature/label views are materialized once and
	// reused by every warm-up epoch and fine-tune iteration instead of
	// being rebuilt per accuracy probe.
	valXS     [][]float64
	valLabels []int
	valReady  bool
}

// resample re-scores D and I' under the current model, rebuilds A and H'
// (Definition 1 plus the mean-confidence filter of §IV-E), and runs the
// sampling strategy to produce a fresh contrastive set C.
func (r *nldRun) resample() error {
	splitSpan := r.obs.StartSpan("detect/split")
	dScores, iScores := &r.dScores, &r.iScores
	dScores.Fill(r.eval, r.d, &r.res.Meter)
	iScores.Fill(r.eval, r.iPrime, &r.res.Meter)

	r.ambIdx = detect.Ambiguous(r.d, dScores.Predicted)
	r.hqIdx = r.highQualityFiltered(iScores)
	splitSpan.End()

	// Assemble the sampler's view in the reused request. Missing-label
	// ambiguous samples have no observed label for the probability draw;
	// substitute the model's current prediction, which is the best available
	// estimate.
	req := &r.req
	req.Ambiguous, req.AmbiguousFeatures = req.Ambiguous[:0], req.AmbiguousFeatures[:0]
	for _, i := range r.ambIdx {
		smp := r.d[i]
		if smp.Observed == dataset.Missing {
			smp.Observed = dScores.Predicted[i]
		}
		req.Ambiguous = append(req.Ambiguous, smp)
		req.AmbiguousFeatures = append(req.AmbiguousFeatures, dScores.Features[i])
	}
	req.Pool, req.PoolFeatures = req.Pool[:0], req.PoolFeatures[:0]
	req.PoolConfidences, req.PoolEntropies, req.PoolPredicted = req.PoolConfidences[:0], req.PoolEntropies[:0], req.PoolPredicted[:0]
	for _, i := range r.hqIdx {
		req.Pool = append(req.Pool, r.iPrime[i])
		req.PoolFeatures = append(req.PoolFeatures, iScores.Features[i])
		req.PoolConfidences = append(req.PoolConfidences, iScores.MaxConf[i])
		req.PoolEntropies = append(req.PoolEntropies, iScores.Entropy[i])
		req.PoolPredicted = append(req.PoolPredicted, iScores.Predicted[i])
	}
	// Baseline policies of §V-A5 select from the uncurated candidates (no
	// high-quality filter), as the paper specifies "in I_c".
	req.RawPool = r.iPrime
	req.RawPoolConfidences = iScores.MaxConf
	req.RawPoolEntropies = iScores.Entropy
	req.RawPoolPredicted = iScores.Predicted

	r.contrastive = r.contrastive[:0]
	if len(req.Ambiguous) == 0 || len(req.Pool) == 0 {
		return nil
	}
	c, err := r.strategy.Select(req)
	if err != nil {
		return fmt.Errorf("core: contrastive sampling: %w", err)
	}
	// Copied, not kept: C is appended to (mergeClean) and outlives this
	// iteration's request, so it must not share storage with whatever the
	// strategy returned.
	r.contrastive = append(r.contrastive, c...)
	return nil
}

// openVotes refills voteIdx with the indices of D whose vote in the coming
// step (remaining counts the iteration's steps left, this one included) can
// still change an output, and voteXS with their features; it returns voteIdx.
//
//   - A Missing-label sample is always open: every pass adds a pseudo-vote.
//   - A member of cleanIDs is never open: the set only ever grows.
//   - Under majority voting, a sample whose count already reaches the
//     threshold, or can no longer reach it in the remaining steps, is
//     decided: count feeds nothing but the end-of-iteration threshold test.
//
// Inference is row-local, so a forwarded row's prediction does not depend on
// which other rows share its batch, and skipping the decided ones leaves
// every output bit unchanged.
func (r *nldRun) openVotes(cleanIDs map[int]bool, count []int, remaining int) []int {
	r.voteIdx, r.voteXS = r.voteIdx[:0], r.voteXS[:0]
	threshold := r.cfg.voteThreshold()
	for i, smp := range r.d {
		if smp.Observed != dataset.Missing {
			if cleanIDs[smp.ID] {
				continue
			}
			if !r.cfg.DisableMajorityVoting && (count[i] >= threshold || count[i]+remaining < threshold) {
				continue
			}
		}
		r.voteIdx = append(r.voteIdx, i)
		r.voteXS = append(r.voteXS, smp.X)
	}
	return r.voteIdx
}

// mergeClean appends D's currently selected clean samples to C
// (Algorithm 3 line 21), stabilizing the fine-tuning set.
func (r *nldRun) mergeClean(cleanIDs map[int]bool) {
	for _, smp := range r.d {
		if cleanIDs[smp.ID] {
			r.contrastive = append(r.contrastive, smp)
		}
	}
}

// trainEpoch runs one training pass over the contrastive set. An empty C
// (no ambiguous samples remain) is a no-op: the model is already consistent
// with D's labels wherever it matters.
func (r *nldRun) trainEpoch() error {
	if len(r.contrastive) == 0 {
		return nil
	}
	r.examples = dataset.AppendExamples(r.examples[:0], r.contrastive, r.targets)
	if len(r.examples) == 0 {
		return nil
	}
	ftSpan := r.obs.StartSpan("detect/finetune")
	stats, err := r.trainer.Run(r.examples, nn.TrainConfig{
		Epochs:    1,
		BatchSize: r.cfg.BatchSize,
		Seed:      r.rng.Uint64(),
	})
	ftSpan.End()
	if err != nil {
		return fmt.Errorf("core: fine-tune epoch: %w", err)
	}
	for _, st := range stats {
		r.res.Meter.TrainSampleVisits += int64(st.SamplesSeen)
		r.res.Meter.ParamUpdates += int64(st.BatchUpdates)
	}
	return nil
}

// warmup trains on the initial contrastive set for WarmupEpochs, keeping the
// parameter snapshot with the best observed-label validation accuracy on D.
func (r *nldRun) warmup() error {
	if r.cfg.WarmupEpochs <= 0 || len(r.contrastive) == 0 {
		return nil
	}
	best := r.model.Clone()
	bestAcc := r.validationAccuracy()
	for epoch := 0; epoch < r.cfg.WarmupEpochs; epoch++ {
		if err := r.trainEpoch(); err != nil {
			return err
		}
		if acc := r.validationAccuracy(); acc > bestAcc {
			bestAcc = acc
			if err := best.CopyFrom(r.model); err != nil {
				return err
			}
		}
	}
	return r.model.CopyFrom(best)
}

// validationAccuracy is the fraction of D's labelled samples whose predicted
// label matches the observed label under the current model.
func (r *nldRun) validationAccuracy() float64 {
	if !r.valReady {
		r.valXS = make([][]float64, 0, len(r.d))
		r.valLabels = make([]int, 0, len(r.d))
		for _, smp := range r.d {
			if smp.Observed == dataset.Missing {
				continue
			}
			r.valXS = append(r.valXS, smp.X)
			r.valLabels = append(r.valLabels, smp.Observed)
		}
		r.valReady = true
	}
	if len(r.valXS) == 0 {
		return 0
	}
	r.preds = r.eval.PredictInto(r.preds, r.valXS)
	r.res.Meter.ForwardPasses += int64(len(r.valXS))
	agree := 0
	for i, p := range r.preds {
		if p == r.valLabels[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(r.valXS))
}

// highQualityFiltered returns the indices of I' forming H': samples whose
// prediction matches their observed label, further filtered to those with
// confidence at or above the mean of their predicted class (§IV-E's
// "average predicted probability" criterion for cleaner contrastive
// samples). It refills hqIdx's storage, which no reader needs by then.
func (r *nldRun) highQualityFiltered(scores *detect.Scores) []int {
	agree := detect.Agreeing(r.iPrime, scores.Predicted)
	sum, n := r.classConfSum, r.classAgree
	clear(sum)
	clear(n)
	for _, i := range agree {
		c := scores.Predicted[i]
		sum[c] += scores.MaxConf[i]
		n[c]++
	}
	out := r.hqIdx[:0]
	for _, i := range agree {
		c := scores.Predicted[i]
		if scores.MaxConf[i] >= sum[c]/float64(n[c]) {
			out = append(out, i)
		}
	}
	return out
}

// noisyOf materializes the complement of cleanIDs over d as an ID set.
func noisyOf(d dataset.Set, cleanIDs map[int]bool) map[int]bool {
	out := make(map[int]bool)
	for _, smp := range d {
		if !cleanIDs[smp.ID] {
			out[smp.ID] = true
		}
	}
	return out
}

func intsToFloats(x []int) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}
