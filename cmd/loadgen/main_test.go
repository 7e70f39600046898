package main

import (
	"path/filepath"
	"testing"

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
