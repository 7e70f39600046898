// Package enld is the public API of this repository: a Go implementation of
// ENLD — Efficient Noisy Label Detection for Incremental Datasets in Data
// Lake (ICDE 2023) — together with every substrate it depends on and the
// baselines it is evaluated against.
//
// # Overview
//
// ENLD serves a data platform that holds a large labelled inventory and
// continuously receives incremental datasets whose labels must be screened
// for noise. The platform initializes once (NewPlatform): it splits the
// inventory, trains a general model with mixup, and estimates the
// conditional mislabeling probability. Each arriving dataset is then served
// by fine-grained noisy label detection (ENLD.Detect) — a few epochs of
// fine-tuning on contrastively sampled inventory neighbours of the
// dataset's ambiguous samples, with clean samples selected by majority
// voting over training steps.
//
// # Quick start
//
//	spec := enld.CIFAR100Like(seed)
//	data, _ := spec.Generate()
//	tm, _ := enld.PairNoise(spec.Classes, 0.2)
//	enld.ApplyNoise(data, tm, enld.NewRNG(seed))
//
//	inventory, pool, _ := enld.SplitRatio(data, 2.0/3.0, enld.NewRNG(seed))
//	platform, _ := enld.NewPlatform(inventory, enld.DefaultPlatformConfig(spec.Classes, spec.FeatureDim, seed))
//
//	detector := &enld.ENLD{Platform: platform, Config: enld.DefaultENLDConfig(seed)}
//	result, _ := detector.Detect(incoming)
//	// result.Noisy / result.Clean partition the incoming sample IDs.
//
// The Example functions in this package are complete, checked programs, and
// internal/experiments holds the code that regenerates every table and
// figure of the paper.
package enld

import (
	"enld/internal/baselines"
	"enld/internal/core"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/lake"
	"enld/internal/mat"
	"enld/internal/metrics"
	"enld/internal/nn"
	"enld/internal/noise"
	"enld/internal/sampling"
)

// Data types.
type (
	// Sample is one labelled example; Observed may differ from True (noise)
	// or be Missing.
	Sample = dataset.Sample
	// Set is an ordered sample collection.
	Set = dataset.Set
	// ShardSpec controls cutting a pool into incremental datasets.
	ShardSpec = dataset.ShardSpec
	// CSVOptions controls LoadCSV.
	CSVOptions = dataset.CSVOptions
)

// Missing marks an absent observed label.
const Missing = dataset.Missing

// Dataset generation, loading and splitting.
var (
	// EMNISTLike and CIFAR100Like return benchmark presets standing in for
	// the paper's image datasets.
	EMNISTLike   = dataset.EMNISTLike
	CIFAR100Like = dataset.CIFAR100Like
	// SplitRatio partitions a set (e.g. inventory versus incremental pool).
	SplitRatio = dataset.SplitRatio
	// Shard cuts the incremental pool into unbalanced incremental datasets.
	Shard = dataset.Shard
	// LoadIDX reads MNIST/EMNIST-format image and label files; LoadCSV reads
	// tabular datasets. Pair with FitPCA to obtain compact feature vectors.
	LoadIDX = dataset.LoadIDX
	LoadCSV = dataset.LoadCSV
	// FitPCA fits a principal-component projection for raw inputs.
	FitPCA = dataset.FitPCA
)

// Noise modelling.
var (
	// PairNoise builds the paper's asymmetric pair-noise matrix.
	PairNoise = noise.Pair
	// ApplyNoise corrupts observed labels in place.
	ApplyNoise = noise.Apply
	// MaskMissing removes a fraction of observed labels (§V-H).
	MaskMissing = noise.MaskMissing
)

// RNG is the deterministic random source used throughout.
type RNG = mat.RNG

// NewRNG returns a seeded deterministic generator.
var NewRNG = mat.NewRNG

// ENLD is the paper's detector (Algorithms 2–3).
type ENLD = core.ENLD

// The platform (Algorithm 1 setup) and the detector's settings.
var (
	// NewPlatform initializes a platform on inventory data.
	NewPlatform = core.NewPlatform
	// DefaultPlatformConfig returns the evaluation's platform settings.
	DefaultPlatformConfig = core.DefaultPlatformConfig
	// DefaultENLDConfig returns the paper's hyperparameters (k=3, s=5,
	// 2 warm-up epochs).
	DefaultENLDConfig = core.DefaultConfig
)

// Detection interfaces and baseline methods.
type (
	// Detector is the interface all methods implement.
	Detector = detect.Detector
	// DefaultDetector flags disagreement with the general model.
	DefaultDetector = baselines.Default
	// ConfidentLearning is the CL baseline; set Variant to PruneByClass
	// (CL-1) or PruneByNoiseRate (CL-2).
	ConfidentLearning = baselines.ConfidentLearning
	// TopoFilter is the feature-space connected-component baseline.
	TopoFilter = baselines.TopoFilter
	// TopoFilterConfig controls the TopoFilter baseline.
	TopoFilterConfig = baselines.TopoFilterConfig
)

// Confident-learning pruning variants.
const (
	PruneByClass     = baselines.PruneByClass
	PruneByNoiseRate = baselines.PruneByNoiseRate
)

// Sampling strategies (§V-A5) pluggable into the ENLD config's Strategy.
type (
	// SamplingStrategy selects contrastive samples during fine-grained NLD.
	SamplingStrategy = sampling.Strategy
	// ContrastiveSampling is the paper's strategy (Algorithm 2).
	ContrastiveSampling = sampling.Contrastive
	// RandomSampling, HighestConfidenceSampling, LeastConfidenceSampling,
	// EntropySampling and PseudoSampling are the §V-A5 baselines.
	RandomSampling            = sampling.Random
	HighestConfidenceSampling = sampling.HighestConfidence
	LeastConfidenceSampling   = sampling.LeastConfidence
	EntropySampling           = sampling.Entropy
	PseudoSampling            = sampling.Pseudo
)

// Detection scores one detection result against ground truth.
type Detection = metrics.Detection

var (
	// EvaluateDetection scores detected-noisy IDs against ground truth.
	EvaluateDetection = metrics.EvaluateDetection
	// AggregateDetections averages detections field-wise.
	AggregateDetections = metrics.AggregateDetections
)

// Data-lake serving layer.
var (
	// NewService binds a detector to a pool of detection workers.
	NewService = lake.NewService
	// Feed converts shards into a paced request stream.
	Feed = lake.Feed
	// NewMemInventory returns an empty in-memory dataset inventory.
	NewMemInventory = lake.NewMemInventory
)

// Arch names a network family.
type Arch = nn.Arch

// Architectures standing in for the paper's network families.
const (
	SimResNet110   = nn.SimResNet110
	SimDenseNet121 = nn.SimDenseNet121
	SimResNet164   = nn.SimResNet164
)
