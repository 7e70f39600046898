package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"enld/internal/dataset"
)

func noisySet() dataset.Set {
	// IDs 1 and 3 are noisy; ID 4 is missing (counts as noisy).
	return dataset.Set{
		{ID: 0, Observed: 0, True: 0},
		{ID: 1, Observed: 1, True: 0},
		{ID: 2, Observed: 2, True: 2},
		{ID: 3, Observed: 0, True: 1},
		{ID: 4, Observed: dataset.Missing, True: 2},
	}
}

func TestEvaluateDetectionExact(t *testing.T) {
	d := noisySet()
	det := EvaluateDetection(d, map[int]bool{1: true, 3: true, 4: true})
	if det.Precision != 1 || det.Recall != 1 || det.F1 != 1 {
		t.Fatalf("perfect detection scored %+v", det)
	}
}

func TestEvaluateDetectionPartial(t *testing.T) {
	d := noisySet()
	// Detect one true noisy (1) and one clean (0): P=0.5, R=1/3.
	det := EvaluateDetection(d, map[int]bool{1: true, 0: true})
	if det.Precision != 0.5 {
		t.Errorf("precision = %v", det.Precision)
	}
	if math.Abs(det.Recall-1.0/3) > 1e-12 {
		t.Errorf("recall = %v", det.Recall)
	}
	wantF1 := 2 * 0.5 * (1.0 / 3) / (0.5 + 1.0/3)
	if math.Abs(det.F1-wantF1) > 1e-12 {
		t.Errorf("f1 = %v, want %v", det.F1, wantF1)
	}
	if det.TruePositives != 1 || det.Detected != 2 || det.Actual != 3 {
		t.Errorf("counts %+v", det)
	}
}

func TestEvaluateDetectionDegenerate(t *testing.T) {
	clean := dataset.Set{{ID: 0, Observed: 1, True: 1}}
	// Nothing noisy, nothing detected: P=R=1.
	det := EvaluateDetection(clean, nil)
	if det.Precision != 1 || det.Recall != 1 {
		t.Errorf("clean/empty scored %+v", det)
	}
	// Nothing noisy, something detected: P=0, R=1.
	det = EvaluateDetection(clean, map[int]bool{0: true})
	if det.Precision != 0 || det.Recall != 1 || det.F1 != 0 {
		t.Errorf("false positive on clean scored %+v", det)
	}
	// Something noisy, nothing detected: P=0 (by convention), R=0.
	noisy := dataset.Set{{ID: 0, Observed: 1, True: 0}}
	det = EvaluateDetection(noisy, nil)
	if det.Precision != 0 || det.Recall != 0 || det.F1 != 0 {
		t.Errorf("empty detection on noisy scored %+v", det)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 || s.Std != 2 || s.N != 8 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s := Summarize(nil); s.Mean != 0 || s.Std != 0 || s.N != 0 {
		t.Fatalf("Summarize(nil) = %+v", s)
	}
	if s := Summarize([]float64{3}); s.Std != 0 {
		t.Fatalf("single-value std = %v", s.Std)
	}
}

func TestAggregateDetections(t *testing.T) {
	agg := AggregateDetections([]Detection{
		{Precision: 1, Recall: 0.5, F1: 2.0 / 3},
		{Precision: 0.5, Recall: 1, F1: 2.0 / 3},
	})
	if agg.Precision.Mean != 0.75 || agg.Recall.Mean != 0.75 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: precision and recall are always in [0,1] and F1 is their
// harmonic mean (or 0 when both are 0).
func TestDetectionProperty(t *testing.T) {
	f := func(seed uint64, nRaw, detRaw uint8) bool {
		n := int(nRaw%30) + 1
		d := make(dataset.Set, n)
		for i := range d {
			d[i] = dataset.Sample{ID: i, Observed: int(seed>>uint(i%8)) % 3, True: i % 3}
		}
		detected := map[int]bool{}
		for i := 0; i < int(detRaw%uint8(n+1)); i++ {
			detected[i] = true
		}
		det := EvaluateDetection(d, detected)
		if det.Precision < 0 || det.Precision > 1 || det.Recall < 0 || det.Recall > 1 {
			return false
		}
		if det.Precision+det.Recall == 0 {
			return det.F1 == 0
		}
		want := 2 * det.Precision * det.Recall / (det.Precision + det.Recall)
		return math.Abs(det.F1-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
