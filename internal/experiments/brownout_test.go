package experiments

import (
	"testing"

	"enld/internal/core"
	"enld/internal/lake"
)

func TestBrownoutLadderShape(t *testing.T) {
	wb, err := BuildWorkbench("emnist", 0.2, quickCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	ladder := BrownoutLadder(wb)
	wantNames := []string{lake.TierFull, lake.TierFallback}
	if len(ladder) != len(wantNames) {
		t.Fatalf("%d rungs, want %d", len(ladder), len(wantNames))
	}
	for i, rung := range ladder {
		if rung.Name != wantNames[i] {
			t.Fatalf("rung %d named %q, want %q", i, rung.Name, wantNames[i])
		}
		if rung.Detector == nil {
			t.Fatalf("rung %d has nil detector", i)
		}
	}
	// Rung 0 is ENLD exactly as the workbench configured it, and the ladder
	// must be accepted by the service's validator.
	e0, ok := ladder[0].Detector.(*core.ENLD)
	if !ok || e0.Platform != wb.Platform || e0.Config != wb.ENLDCfg {
		t.Fatalf("full rung misconfigured: %+v", ladder[0].Detector)
	}
	svc, err := lake.NewService(ladder[0].Detector, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetBrownout(ladder, lake.BrownoutConfig{QueueHigh: 4}, nil); err != nil {
		t.Fatal(err)
	}
}
