package main

import (
	"fmt"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/kdtree"
	"enld/internal/metrics"
	"enld/internal/nn"
)

// probeRepeats is how many times each unit probe runs; the median is kept.
const probeRepeats = 5

// probeResult holds the unit costs of the layers under detect, measured on
// the workload's own platform before the replay, on one goroutine.
type probeResult struct {
	trainPer1k, predictPer1k, scorePer1k, kdBuildPer1k float64 // seconds per 1000 samples
	cloneMicros, kdQueryMicros                         float64
}

// timed returns the median seconds of probeRepeats runs of fn.
func timed(fn func() error) (float64, error) {
	secs := make([]float64, probeRepeats)
	for i := range secs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		secs[i] = time.Since(t0).Seconds()
	}
	return median(secs), nil
}

// runProbes measures what one fine-tune visit, one forward pass, one model
// clone, one scoring pass, one KD-tree build and one k-NN query cost here,
// so that counts × unit costs can be set against the measured Detect time
// (core.detect_predicted_frac).
func runProbes(wb *experiments.Workbench) (probeResult, error) {
	var pr probeResult
	set := wb.Inventory
	if len(set) > 1000 {
		set = set[:1000]
	}
	per1k := 1000 / float64(len(set))
	xs := make([][]float64, len(set))
	for i, s := range set {
		xs[i] = s.X
	}
	model := wb.Platform.Model
	cfg := wb.ENLDCfg

	examples := dataset.ToExamples(set, wb.Spec.Classes)
	sec, err := timed(func() error {
		trainer := nn.NewTrainer(model.Clone(), nn.NewSGD(cfg.FinetuneLR, cfg.Momentum, 0))
		_, err := trainer.Run(examples, nn.TrainConfig{Epochs: 1, BatchSize: cfg.BatchSize, Seed: 1, Workers: 1})
		return err
	})
	if err != nil {
		return pr, fmt.Errorf("train probe: %w", err)
	}
	pr.trainPer1k = sec * 1000 / float64(len(examples))

	replica := model.Clone()
	sec, _ = timed(func() error { replica.PredictBatch(xs, 1); return nil })
	pr.predictPer1k = sec * per1k

	sec, _ = timed(func() error {
		for i := 0; i < 20; i++ {
			model.Clone()
		}
		return nil
	})
	pr.cloneMicros = sec / 20 * 1e6

	var scores *detect.Scores
	sec, _ = timed(func() error { scores = detect.ScoreParallel(replica, set, nil, 1); return nil })
	pr.scorePer1k = sec * per1k

	points := make([]kdtree.Point, len(set))
	for i := range set {
		points[i] = kdtree.Point{Vec: scores.Features[i], Payload: i}
	}
	var tree *kdtree.Tree
	sec, err = timed(func() error {
		var err error
		tree, err = kdtree.Build(points)
		return err
	})
	if err != nil {
		return pr, fmt.Errorf("kdtree probe: %w", err)
	}
	pr.kdBuildPer1k = sec * per1k

	queries := scores.Features
	if len(queries) > 200 {
		queries = queries[:200]
	}
	var scratch kdtree.Scratch
	sec, err = timed(func() error {
		for _, q := range queries {
			if _, err := tree.KNearestInto(&scratch, q, cfg.K); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return pr, fmt.Errorf("kdtree probe: %w", err)
	}
	pr.kdQueryMicros = sec / float64(len(queries)) * 1e6
	return pr, nil
}

// tierResult is one brownout rung measured over the catalog.
type tierResult struct {
	name string
	p50  float64 // median Detect seconds
	f1   float64 // pooled over the catalog
	n    int
}

// measureTiers runs every rung of the shipped ladder once over the catalog,
// on one goroutine. Like a closed loop's task count, the number of entries
// visited is sized by the run length: all of them from 16 s up. The ladder
// is taken from experiments.BrownoutLadder and never built here, so a
// rebuilt ladder is measured unchanged.
func measureTiers(p *platform, seconds float64) ([]tierResult, error) {
	entries := p.catalog
	if n := max(1, int(1.5*seconds)); n < len(entries) {
		entries = entries[:n]
	}
	var out []tierResult
	for _, rung := range experiments.BrownoutLadder(p.wb) {
		r := tierResult{name: rung.Name, n: len(entries)}
		var secs []float64
		tp, detected, actual := 0, 0, 0
		for j, d := range entries {
			t0 := time.Now()
			res, err := rung.Detector.Detect(d)
			secs = append(secs, time.Since(t0).Seconds())
			if err != nil {
				return nil, fmt.Errorf("tier %s on catalog entry %d: %w", rung.Name, j, err)
			}
			det := metrics.EvaluateDetection(d, res.Noisy)
			tp += det.TruePositives
			detected += det.Detected
			actual += det.Actual
		}
		r.p50 = median(secs)
		r.f1 = pooledF1(tp, detected, actual)
		out = append(out, r)
	}
	return out, nil
}
