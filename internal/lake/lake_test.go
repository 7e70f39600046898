package lake

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/mat"
	"enld/internal/nn"
)

func sample(id, label int) dataset.Sample {
	return dataset.Sample{ID: id, X: []float64{1, 2}, Observed: label, True: label}
}

// flagOdd is a trivial detector marking odd IDs noisy.
type flagOdd struct{ delay time.Duration }

func (flagOdd) Name() string { return "flag-odd" }

func (f flagOdd) Detect(d dataset.Set) (*detect.Result, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	res := detect.NewResult()
	for _, smp := range d {
		if smp.ID%2 == 1 {
			res.MarkNoisy(smp.ID)
		} else {
			res.MarkClean(smp.ID)
		}
	}
	res.Process = f.delay
	return res, nil
}

// failing always errors.
type failing struct{}

func (failing) Name() string { return "failing" }
func (failing) Detect(dataset.Set) (*detect.Result, error) {
	return nil, errors.New("boom")
}

func shards(n, size int) []dataset.Set {
	out := make([]dataset.Set, n)
	id := 0
	for i := range out {
		for j := 0; j < size; j++ {
			s := sample(id, id%3)
			if id%2 == 1 {
				s.True = (s.Observed + 1) % 3 // odd IDs are genuinely noisy
			}
			out[i] = append(out[i], s)
			id++
		}
	}
	return out
}

func TestServiceProcessesAllRequests(t *testing.T) {
	svc, err := NewService(flagOdd{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(7, 4), 0))
	if len(reports) != 7 {
		t.Fatalf("%d reports", len(reports))
	}
	for i, rep := range reports {
		if rep.TaskID != i {
			t.Fatalf("reports not ordered: %v", rep.TaskID)
		}
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if rep.Size != 4 {
			t.Fatalf("size = %d", rep.Size)
		}
		// flagOdd is exactly right on this workload.
		if rep.Detection.F1 != 1 {
			t.Fatalf("task %d F1 = %v", rep.TaskID, rep.Detection.F1)
		}
	}
}

func TestServiceReportsErrors(t *testing.T) {
	svc, _ := NewService(failing{}, 1)
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(2, 3), 0))
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	for _, rep := range reports {
		if rep.Err == nil {
			t.Fatal("error not reported")
		}
	}
}

func TestServiceContextCancel(t *testing.T) {
	svc, _ := NewService(flagOdd{delay: 5 * time.Millisecond}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(8 * time.Millisecond)
		cancel()
	}()
	reports := svc.Run(ctx, Feed(ctx, shards(100, 2), 0))
	if len(reports) == 0 || len(reports) >= 100 {
		t.Fatalf("cancel processed %d tasks", len(reports))
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(nil, 1); err == nil {
		t.Error("nil detector accepted")
	}
	if _, err := NewService(flagOdd{}, 0); err == nil {
		t.Error("0 workers accepted")
	}
}

func TestFeedPacing(t *testing.T) {
	ctx := context.Background()
	start := time.Now()
	ch := Feed(ctx, shards(3, 1), 2*time.Millisecond)
	n := 0
	for range ch {
		n++
	}
	if n != 3 {
		t.Fatalf("fed %d", n)
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("pacing not applied")
	}
}

func TestServiceOnReportCallback(t *testing.T) {
	svc, err := NewService(flagOdd{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	svc.OnReport = func(rep Report) {
		mu.Lock()
		seen[rep.TaskID] = true
		mu.Unlock()
	}
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(5, 2), 0))
	if len(reports) != 5 || len(seen) != 5 {
		t.Fatalf("reports=%d callbacks=%d", len(reports), len(seen))
	}
}

// realDetector adapts a shared nn.Network the way baselines do, to verify
// the service's concurrency contract end-to-end under the race detector.
type realDetector struct{ model *nn.Network }

func (realDetector) Name() string { return "real" }

func (r realDetector) Detect(d dataset.Set) (*detect.Result, error) {
	res := detect.NewResult()
	scores := detect.Score(r.model.Clone(), d, &res.Meter)
	for i, smp := range d {
		if scores.Predicted[i] == smp.Observed {
			res.MarkClean(smp.ID)
		} else {
			res.MarkNoisy(smp.ID)
		}
	}
	return res, nil
}

func TestServiceConcurrentModelAccess(t *testing.T) {
	model := nn.NewNetwork([]int{2, 4, 3}, mat.NewRNG(1))
	svc, err := NewService(realDetector{model: model}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(12, 5), 0))
	if len(reports) != 12 {
		t.Fatalf("%d reports", len(reports))
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
}

// panicking blows up on every call.
type panicking struct{}

func (panicking) Name() string { return "panicking" }
func (panicking) Detect(dataset.Set) (*detect.Result, error) {
	panic("detector bug")
}

func TestServiceContainsDetectorPanic(t *testing.T) {
	svc, _ := NewService(panicking{}, 2)
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(4, 2), 0))
	if len(reports) != 4 {
		t.Fatalf("%d reports after panics", len(reports))
	}
	for _, rep := range reports {
		if rep.Err == nil {
			t.Fatal("panic not converted to error")
		}
	}
}
