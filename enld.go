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
// See examples/ for complete programs and internal/experiments for the code
// that regenerates every table and figure of the paper.
package enld

import (
	"enld/internal/baselines"
	"enld/internal/core"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/fault"
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
	// Spec describes a synthetic benchmark dataset.
	Spec = dataset.Spec
	// ShardSpec controls cutting a pool into incremental datasets.
	ShardSpec = dataset.ShardSpec
)

// Missing marks an absent observed label.
const Missing = dataset.Missing

// Dataset generation and splitting.
var (
	// EMNISTLike, CIFAR100Like and TinyImageNetLike return the three
	// benchmark presets standing in for the paper's image datasets.
	EMNISTLike       = dataset.EMNISTLike
	CIFAR100Like     = dataset.CIFAR100Like
	TinyImageNetLike = dataset.TinyImageNetLike
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

// PCA is a fitted principal-component projection (see FitPCA).
type PCA = dataset.PCA

// CSVOptions controls LoadCSV.
type CSVOptions = dataset.CSVOptions

// Noise modelling.
type (
	// TransitionMatrix is the label-noise model T[i][j] = P(ỹ=j | y*=i).
	TransitionMatrix = noise.TransitionMatrix
	// Conditional is the estimated P̃(y* = j | ỹ = i).
	Conditional = noise.Conditional
)

var (
	// PairNoise builds the paper's asymmetric pair-noise matrix.
	PairNoise = noise.Pair
	// SymmetricNoise builds a uniform-noise matrix.
	SymmetricNoise = noise.Symmetric
	// ApplyNoise corrupts observed labels in place.
	ApplyNoise = noise.Apply
	// MaskMissing removes a fraction of observed labels (§V-H).
	MaskMissing = noise.MaskMissing
	// ApplyInstanceDependent corrupts boundary samples preferentially
	// (instance-dependent noise).
	ApplyInstanceDependent = noise.ApplyInstanceDependent
)

// RNG is the deterministic random source used throughout.
type RNG = mat.RNG

// NewRNG returns a seeded deterministic generator.
var NewRNG = mat.NewRNG

// The platform and the ENLD detector (the paper's contribution).
type (
	// Platform holds the general model, probability estimate and inventory
	// halves (Algorithm 1 setup).
	Platform = core.Platform
	// PlatformConfig controls platform initialization.
	PlatformConfig = core.PlatformConfig
	// ENLD is the paper's detector (Algorithms 2–3).
	ENLD = core.ENLD
	// ENLDConfig controls fine-grained noisy label detection.
	ENLDConfig = core.Config
	// ENLDResult is the extended detection result with per-iteration
	// snapshots, inventory selection and pseudo labels.
	ENLDResult = core.FullResult
)

var (
	// NewPlatform initializes a platform on inventory data.
	NewPlatform = core.NewPlatform
	// DefaultPlatformConfig returns the evaluation's platform settings.
	DefaultPlatformConfig = core.DefaultPlatformConfig
	// DefaultENLDConfig returns the paper's hyperparameters (k=3, s=5,
	// 2 warm-up epochs).
	DefaultENLDConfig = core.DefaultConfig
	// LoadPlatform restores a platform written with Platform.Save, so a
	// restarted service skips the setup phase.
	LoadPlatform = core.LoadPlatform
)

// Detection interfaces and baseline methods.
type (
	// Detector is the interface all methods implement.
	Detector = detect.Detector
	// Result is a detection outcome: Noisy/Clean ID partition plus cost.
	Result = detect.Result
	// DefaultDetector flags disagreement with the general model.
	DefaultDetector = baselines.Default
	// ConfidentLearning is the CL baseline; set Variant to PruneByClass
	// (CL-1) or PruneByNoiseRate (CL-2).
	ConfidentLearning = baselines.ConfidentLearning
	// TopoFilter is the feature-space connected-component baseline.
	TopoFilter = baselines.TopoFilter
	// TopoFilterConfig controls the TopoFilter baseline.
	TopoFilterConfig = baselines.TopoFilterConfig
	// LossTrack is the O2U-style loss-tracking extension detector.
	LossTrack = baselines.LossTrack
	// LossTrackConfig controls LossTrack.
	LossTrackConfig = baselines.LossTrackConfig
	// INCV is the iterative cross-validation extension detector.
	INCV = baselines.INCV
	// INCVConfig controls INCV.
	INCVConfig = baselines.INCVConfig
	// CoTeaching is the two-network small-loss extension detector.
	CoTeaching = baselines.CoTeaching
	// CoTeachingConfig controls CoTeaching.
	CoTeachingConfig = baselines.CoTeachingConfig
)

// Confident-learning pruning variants.
const (
	PruneByClass     = baselines.PruneByClass
	PruneByNoiseRate = baselines.PruneByNoiseRate
)

// Sampling strategies (§V-A5) pluggable into ENLDConfig.Strategy.
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

// Evaluation metrics.
type (
	// Detection scores one detection result against ground truth.
	Detection = metrics.Detection
	// DetectionAggregate summarizes detections across datasets.
	DetectionAggregate = metrics.Aggregate
)

// PairedComparison is a paired sign-test outcome between two methods.
type PairedComparison = metrics.PairedComparison

var (
	// EvaluateDetection scores detected-noisy IDs against ground truth.
	EvaluateDetection = metrics.EvaluateDetection
	// AggregateDetections averages detections field-wise.
	AggregateDetections = metrics.AggregateDetections
	// SignTest runs a two-sided paired sign test over per-dataset scores.
	SignTest = metrics.SignTest
)

// Data-lake serving layer.
type (
	// Store is a persistent labelled-sample inventory.
	Store = lake.Store
	// StoreMeta describes a store's task.
	StoreMeta = lake.StoreMeta
	// Service processes detection requests with a worker pool.
	Service = lake.Service
	// Request and Report are the service's task input and outcome.
	Request = lake.Request
	Report  = lake.Report
	// StatusTracker aggregates task reports for the HTTP status endpoint.
	StatusTracker = lake.StatusTracker
	// Policy configures the service's resilience behaviour: per-task
	// deadlines, circuit breaking and fallback degradation.
	Policy = lake.Policy
	// Breaker is the circuit breaker over the primary detector.
	Breaker = lake.Breaker
	// BreakerState is one of closed, open, half-open.
	BreakerState = lake.BreakerState
	// FaultInjector wraps a detector with deterministic chaos for
	// resilience testing.
	FaultInjector = fault.Injector
	// FaultConfig sets the injector's seed and fault rates.
	FaultConfig = fault.Config
)

var (
	// NewStore creates an empty inventory store.
	NewStore = lake.NewStore
	// LoadStore reads a store written with Store.Save.
	LoadStore = lake.LoadStore
	// NewService binds a detector to a worker pool; NewServiceWithPolicy
	// adds resilience behaviour (deadlines, breaker, fallback).
	NewService           = lake.NewService
	NewServiceWithPolicy = lake.NewServiceWithPolicy
	// NewBreaker builds a standalone circuit breaker.
	NewBreaker = lake.NewBreaker
	// NewFaultInjector wraps a detector with seed-driven fault injection.
	NewFaultInjector = fault.New
	// Feed converts shards into a paced request stream.
	Feed = lake.Feed
	// NewStatusTracker creates a status aggregator for live monitoring.
	NewStatusTracker = lake.NewStatusTracker
)

// Neural substrate access for advanced use (custom architectures, direct
// model training).
type (
	// Network is the feed-forward classifier standing in for the paper's
	// CNNs.
	Network = nn.Network
	// Arch names a network family.
	Arch = nn.Arch
)

// Architectures standing in for the paper's network families.
const (
	SimResNet110   = nn.SimResNet110
	SimDenseNet121 = nn.SimDenseNet121
	SimResNet164   = nn.SimResNet164
)
