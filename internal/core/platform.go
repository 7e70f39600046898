// Package core implements ENLD — the paper's contribution: efficient noisy
// label detection for incremental datasets arriving at a data platform with
// a large inventory.
//
// The package follows the paper's two-stage structure. Stage one
// (Platform/NewPlatform, Algorithm 1 lines 1–3) splits the inventory into a
// training half I_t and a contrastive-candidate half I_c, trains the general
// model θ on I_t with mixup, and estimates the conditional mislabeling
// probability P̃(y* = j | ỹ = i) on I_c (Eq. 3–5). Stage two (ENLD.Detect,
// Algorithms 2–3) serves each incoming incremental dataset with contrastive
// sampling plus fine-grained noisy label detection. Algorithm 4's model
// update lives in modelupdate.go.
package core

import (
	"errors"
	"fmt"
	"time"

	"enld/internal/cost"
	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/nn"
	"enld/internal/noise"
	"enld/internal/obs"
)

// PlatformConfig controls general-model initialization.
type PlatformConfig struct {
	// Arch selects the network family; empty means SimResNet110.
	Arch    nn.Arch
	Classes int
	// InputDim is the feature-vector length of the task's samples.
	InputDim int

	// Training hyperparameters for the general model.
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	// MixupAlpha is the Beta parameter of mixup augmentation; the paper uses
	// 0.2 (applied when positive).
	MixupAlpha float64

	// Watchdog enables the numerical-health watchdog (NaN/Inf and
	// loss-divergence detection with checkpoint rollback) for every training
	// run the platform performs — setup and Algorithm-4 model updates alike.
	Watchdog nn.WatchdogConfig

	Seed uint64
}

// DefaultPlatformConfig returns the setup used across the evaluation.
func DefaultPlatformConfig(classes, inputDim int, seed uint64) PlatformConfig {
	return PlatformConfig{
		Arch:        nn.SimResNet110,
		Classes:     classes,
		InputDim:    inputDim,
		Epochs:      30,
		BatchSize:   32,
		LR:          0.01,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		MixupAlpha:  nn.DefaultMixupAlpha,
		Seed:        seed,
	}
}

// Platform is the stateful data-platform side of ENLD: the general model θ,
// the estimated conditional probability P̃, and the inventory halves I_t
// (training) and I_c (contrastive candidates).
type Platform struct {
	Model *nn.Network
	Cond  noise.Conditional
	It    dataset.Set
	Ic    dataset.Set

	Config PlatformConfig

	// SetupTime and SetupMeter record the cost of model initialization —
	// the paper's "setup time", shared by Default, CL and ENLD.
	SetupTime  time.Duration
	SetupMeter cost.Meter

	// Health accumulates watchdog statistics over every training run the
	// platform performed (setup plus model updates). It stays zero (with
	// LastUnhealthyEpoch -1) when Config.Watchdog is disabled.
	Health nn.WatchdogStats

	// Obs, when set, receives metrics and phase spans from every operation
	// the platform performs — general-model training, probability
	// estimation, and each ENLD detection served from this platform. It is
	// runtime wiring, not state: Save/Load do not persist it (a restored
	// platform is unobserved until the caller re-attaches a registry).
	Obs *obs.Registry
}

// NewPlatform performs model_init(I) of Algorithm 1: a uniform random split
// of the inventory into I_t and I_c, general-model training on I_t with
// mixup, and probability estimation on I_c.
func NewPlatform(inventory dataset.Set, cfg PlatformConfig) (*Platform, error) {
	return NewPlatformObserved(inventory, cfg, nil)
}

// NewPlatformObserved is NewPlatform with an observability registry attached
// before any work runs, so setup training and probability estimation are
// already instrumented. A nil registry is equivalent to NewPlatform.
func NewPlatformObserved(inventory dataset.Set, cfg PlatformConfig, reg *obs.Registry) (*Platform, error) {
	if len(inventory) == 0 {
		return nil, errors.New("core: empty inventory")
	}
	if cfg.Classes < 2 || cfg.InputDim < 1 {
		return nil, fmt.Errorf("core: invalid platform dims classes=%d input=%d", cfg.Classes, cfg.InputDim)
	}
	if cfg.Arch == "" {
		cfg.Arch = nn.SimResNet110
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	sw := cost.StartStopwatch()
	p := &Platform{Config: cfg, Health: nn.WatchdogStats{LastUnhealthyEpoch: -1}, Obs: reg}
	rng := mat.NewRNG(cfg.Seed)

	var err error
	p.It, p.Ic, err = dataset.SplitRatio(inventory, 0.5, rng)
	if err != nil {
		return nil, fmt.Errorf("core: inventory split: %w", err)
	}
	p.Model, err = nn.Build(cfg.Arch, cfg.InputDim, cfg.Classes, rng.Split())
	if err != nil {
		return nil, err
	}
	if err := p.trainGeneral(p.Model, p.It, rng.Uint64()); err != nil {
		return nil, err
	}
	if err := p.estimate(); err != nil {
		return nil, err
	}
	p.SetupTime = sw.Elapsed()
	return p, nil
}

// trainGeneral trains model on set with the platform's hyperparameters,
// charging the setup meter.
func (p *Platform) trainGeneral(model *nn.Network, set dataset.Set, seed uint64) error {
	examples := dataset.ToExamples(set, p.Config.Classes)
	if len(examples) == 0 {
		return errors.New("core: no labelled training samples")
	}
	trainer := nn.NewTrainer(model, nn.NewSGD(p.Config.LR, p.Config.Momentum, p.Config.WeightDecay))
	trainer.Obs = p.Obs
	stats, err := trainer.Run(examples, nn.TrainConfig{
		Epochs:     p.Config.Epochs,
		BatchSize:  p.Config.BatchSize,
		Mixup:      p.Config.MixupAlpha > 0,
		MixupAlpha: p.Config.MixupAlpha,
		Seed:       seed,
		Watchdog:   p.Config.Watchdog,
	})
	if p.Config.Watchdog.Enabled {
		// Accumulate even on error: a run that exhausted its rollback budget
		// still counts its checks and rollbacks in the platform's health view.
		p.Health.Accumulate(trainer.WatchdogStats())
	}
	if err != nil {
		return fmt.Errorf("core: general model training: %w", err)
	}
	for _, st := range stats {
		p.SetupMeter.TrainSampleVisits += int64(st.SamplesSeen)
		p.SetupMeter.ParamUpdates += int64(st.BatchUpdates)
	}
	return nil
}

// estimate recomputes P̃ from the current model and I_c (Eq. 3–5).
func (p *Platform) estimate() error {
	sp := p.Obs.StartSpan("platform/estimate")
	defer sp.End()
	joint, err := noise.EstimateJoint(p.Ic, p.Model, p.Config.Classes)
	if err != nil {
		return fmt.Errorf("core: probability estimation: %w", err)
	}
	p.SetupMeter.ForwardPasses += int64(len(p.Ic))
	p.Cond = joint.Conditional()
	return nil
}

// Classes returns the task's class count.
func (p *Platform) Classes() int { return p.Config.Classes }
