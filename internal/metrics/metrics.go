// Package metrics implements the evaluation metrics of §V-A3: precision,
// recall and F1 of a detected noisy-label set against the ground truth, plus
// the aggregation helpers (mean, standard deviation across incremental
// datasets) the figures report.
package metrics

import (
	"fmt"
	"math"

	"enld/internal/dataset"
)

// Detection summarizes one noisy-label detection result:
// P = |D_N ∩ D̃_N| / |D̃_N|, R = |D_N ∩ D̃_N| / |D_N|, F1 = 2PR/(P+R).
type Detection struct {
	Precision float64
	Recall    float64
	F1        float64
	// TruePositives, Detected and Actual carry the raw counts behind the
	// ratios, which the training-process figures use directly.
	TruePositives int
	Detected      int
	Actual        int
}

// EvaluateDetection scores a detected noisy set (given by sample IDs)
// against the ground-truth noisy IDs of d. Conventions for the degenerate
// cases follow the usual information-retrieval ones: empty detection has
// precision 1 if nothing was noisy, else 0; recall is 1 when nothing was
// actually noisy.
func EvaluateDetection(d dataset.Set, detectedNoisy map[int]bool) Detection {
	truth := d.NoisyIDs()
	det := Detection{Detected: len(detectedNoisy), Actual: len(truth)}
	for id := range detectedNoisy {
		if truth[id] {
			det.TruePositives++
		}
	}
	switch {
	case det.Detected > 0:
		det.Precision = float64(det.TruePositives) / float64(det.Detected)
	case det.Actual == 0:
		det.Precision = 1
	}
	if det.Actual > 0 {
		det.Recall = float64(det.TruePositives) / float64(det.Actual)
	} else {
		det.Recall = 1
	}
	if det.Precision+det.Recall > 0 {
		det.F1 = 2 * det.Precision * det.Recall / (det.Precision + det.Recall)
	}
	return det
}

// Summary aggregates a metric across incremental datasets.
type Summary struct {
	Mean float64
	Std  float64
	N    int
}

// Summarize computes mean and population standard deviation.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if len(values) == 0 {
		return s
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	s.Mean = sum / float64(len(values))
	if len(values) > 1 {
		var sq float64
		for _, v := range values {
			d := v - s.Mean
			sq += d * d
		}
		s.Std = math.Sqrt(sq / float64(len(values)))
	}
	return s
}

// Aggregate summarizes a slice of Detection results field-wise. This is how
// the figures report "average precision, recall and f1 score of N
// incremental datasets".
type Aggregate struct {
	Precision Summary
	Recall    Summary
	F1        Summary
}

// AggregateDetections builds an Aggregate from per-dataset detections.
func AggregateDetections(ds []Detection) Aggregate {
	p := make([]float64, len(ds))
	r := make([]float64, len(ds))
	f := make([]float64, len(ds))
	for i, d := range ds {
		p[i], r[i], f[i] = d.Precision, d.Recall, d.F1
	}
	return Aggregate{Precision: Summarize(p), Recall: Summarize(r), F1: Summarize(f)}
}

// String renders the aggregate in the form the experiment tables print.
func (a Aggregate) String() string {
	return fmt.Sprintf("P=%.4f±%.4f R=%.4f±%.4f F1=%.4f±%.4f",
		a.Precision.Mean, a.Precision.Std,
		a.Recall.Mean, a.Recall.Std,
		a.F1.Mean, a.F1.Std)
}
