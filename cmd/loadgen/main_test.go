package main

import (
	"path/filepath"
	"strings"
	"testing"

	"enld/internal/lake"
	"enld/internal/workload"
)

// TestScenarioFiles keeps every checked-in scenario spec loadable and
// generable: a spec that validates but cannot produce a trace (or whose SLO
// block is empty) would turn the CI load gate into a no-op.
func TestScenarioFiles(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario files found")
	}
	for _, path := range paths {
		spec, err := workload.LoadSpec(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if spec.SLO.Empty() {
			t.Errorf("%s: no SLOs declared — the load gate would pass vacuously", path)
		}
		tr, err := workload.GenTrace(spec)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(tr.Events) == 0 {
			t.Errorf("%s: trace has no events", path)
		}
		if _, err := tr.Hash(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

// TestReportPrintsEveryTier pins the run log's per-tier line: every tier the
// run measured is printed, in sorted order, whatever the rungs are named.
func TestReportPrintsEveryTier(t *testing.T) {
	var buf strings.Builder
	report(&buf, &workload.ScenarioResult{
		Name: "s",
		TierF1: map[string]workload.TierF1{
			"middle":   {MeanF1: 0.5, Tasks: 2},
			"full":     {MeanF1: 0.9, Tasks: 7},
			"fallback": {MeanF1: 0.4, Tasks: 3},
		},
		Pass: true,
	})
	want := "[s] brownout: fallback: F1=0.400 over 3 full: F1=0.900 over 7 middle: F1=0.500 over 2\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("report output:\n%s\nwant line:\n%s", buf.String(), want)
	}
}

// TestCheckTierFloors rejects a min_tier_f1 floor on a tier the ladder lacks
// (the SLO would skip it silently) and accepts floors on a subset of rungs.
func TestCheckTierFloors(t *testing.T) {
	ladder := []lake.TierDetector{{Name: lake.TierFull}, {Name: lake.TierFallback}}
	if err := checkTierFloors(map[string]float64{"full": 0.3}, ladder); err != nil {
		t.Fatalf("floor on a present rung rejected: %v", err)
	}
	if err := checkTierFloors(nil, ladder); err != nil {
		t.Fatalf("no floors rejected: %v", err)
	}
	err := checkTierFloors(map[string]float64{"full": 0.3, "ann": 0.3, "fallback": 0.25}, ladder)
	if err == nil || !strings.Contains(err.Error(), `"ann"`) {
		t.Fatalf("floor on a missing rung: err = %v, want one naming \"ann\"", err)
	}
}
