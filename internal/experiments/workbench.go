package experiments

import (
	"fmt"

	"enld/internal/core"
	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/noise"
)

// Workbench is one fully prepared evaluation setting: a noisy task split
// into inventory and incremental shards, with a platform initialized on the
// inventory.
type Workbench struct {
	Preset    string
	Eta       float64
	Spec      dataset.Spec
	Platform  *core.Platform
	Inventory dataset.Set // full I (both halves), for TopoFilter
	Shards    []dataset.Set
	ENLDCfg   core.Config
}

// presetShardSpec returns the paper's incremental split for each benchmark
// (§V-A1).
func presetShardSpec(preset string) (dataset.ShardSpec, int) {
	// Drift models the distribution change of arriving datasets (§I); the
	// harder benchmarks drift more, mirroring how far Tiny-ImageNet batches
	// stray from any fixed training distribution.
	switch preset {
	case "emnist":
		return dataset.ShardSpec{Shards: 10, MinClasses: 5, MaxClasses: 6, Drift: 0.35}, 5
	case "cifar100":
		return dataset.ShardSpec{Shards: 20, MinClasses: 10, MaxClasses: 10, Drift: 0.55}, 17
	case "tinyimagenet":
		return dataset.ShardSpec{Shards: 20, MinClasses: 20, MaxClasses: 20, Drift: 0.65}, 17
	default:
		return dataset.ShardSpec{Shards: 10, MinClasses: 5, MaxClasses: 6, Drift: 0.35}, 5
	}
}

// BuildWorkbench prepares the named preset ("emnist", "cifar100",
// "tinyimagenet") at noise rate eta under cfg.
func BuildWorkbench(preset string, eta float64, cfg Config) (*Workbench, error) {
	return buildWorkbench(preset, eta, cfg, nil)
}

// BuildWorkbenchFrom is BuildWorkbench with a previously saved platform
// (core.LoadPlatform) substituted for the setup phase — the crash-recovery
// path: a restarted service resumes serving without retraining the general
// model. Dataset generation is deterministic from cfg.Seed, so the rebuilt
// shards are byte-identical to the original run's, which is what makes
// skipping tasks by their recorded outcomes sound. The platform must match the preset's
// class count and feature dimension.
func BuildWorkbenchFrom(preset string, eta float64, cfg Config, platform *core.Platform) (*Workbench, error) {
	if platform == nil {
		return nil, fmt.Errorf("experiments: nil platform")
	}
	return buildWorkbench(preset, eta, cfg, platform)
}

// BuildData is the data half of BuildWorkbench: it generates the preset's
// task, applies the noise, splits it into inventory and pool and shards the
// pool, all deterministically from cfg.Seed, and sets up no platform — the
// returned Workbench's Platform is nil. A coordinator that only feeds the
// shards to remote workers needs nothing more.
func BuildData(preset string, eta float64, cfg Config) (*Workbench, error) {
	cfg = cfg.normalized()
	specs := dataset.Presets(cfg.Seed)
	spec, ok := specs[preset]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown preset %q", preset)
	}
	spec = spec.Scale(cfg.DataScale)

	full, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	rng := mat.NewRNG(cfg.Seed ^ 0x517cc1b727220a95)
	if eta > 0 {
		var tm noise.TransitionMatrix
		var err error
		switch cfg.Noise {
		case "", NoisePair:
			tm, err = noise.Pair(spec.Classes, eta)
		case NoiseSymmetric:
			tm, err = noise.Symmetric(spec.Classes, eta)
		default:
			return nil, fmt.Errorf("experiments: unknown noise kind %q", cfg.Noise)
		}
		if err != nil {
			return nil, err
		}
		if _, err := noise.Apply(full, tm, rng); err != nil {
			return nil, err
		}
	}
	inventory, pool, err := dataset.SplitRatio(full, 2.0/3.0, rng)
	if err != nil {
		return nil, err
	}
	shardSpec, iterations := presetShardSpec(preset)
	if cfg.Shards > 0 {
		shardSpec.Shards = cfg.Shards
	}
	if cfg.Iterations > 0 {
		iterations = cfg.Iterations
	}
	shards, err := dataset.Shard(pool, shardSpec, rng)
	if err != nil {
		return nil, err
	}
	ecfg := core.DefaultConfig(cfg.Seed + 2)
	ecfg.Iterations = iterations
	return &Workbench{
		Preset:    preset,
		Eta:       eta,
		Spec:      spec,
		Inventory: inventory,
		Shards:    shards,
		ENLDCfg:   ecfg,
	}, nil
}

// buildWorkbench is BuildData plus the platform half: platform, when
// non-nil, is checked against the preset and used as is; otherwise one is
// set up on the inventory.
func buildWorkbench(preset string, eta float64, cfg Config, platform *core.Platform) (*Workbench, error) {
	cfg = cfg.normalized()
	wb, err := BuildData(preset, eta, cfg)
	if err != nil {
		return nil, err
	}
	spec := wb.Spec
	if platform == nil {
		pcfg := core.DefaultPlatformConfig(spec.Classes, spec.FeatureDim, cfg.Seed+1)
		pcfg.Epochs = cfg.PlatformEpochs
		pcfg.Watchdog = cfg.Watchdog
		platform, err = core.NewPlatformObserved(wb.Inventory, pcfg, cfg.Obs)
		if err != nil {
			return nil, err
		}
	} else if platform.Config.Classes != spec.Classes || platform.Config.InputDim != spec.FeatureDim {
		return nil, fmt.Errorf("experiments: saved platform (classes=%d dim=%d) does not match preset %q (classes=%d dim=%d)",
			platform.Config.Classes, platform.Config.InputDim, preset, spec.Classes, spec.FeatureDim)
	} else if cfg.Obs != nil {
		// A restored platform carries no registry (Save/Load drop it);
		// re-attach the caller's.
		platform.Obs = cfg.Obs
	}
	wb.Platform = platform
	return wb, nil
}
