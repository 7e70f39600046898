package lake_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"enld/internal/core"
	"enld/internal/dataset"
	"enld/internal/fault"
	"enld/internal/lake"
	"enld/internal/lake/seglog"
	"enld/internal/mat"
	"enld/internal/nn"
)

// buildRecoveryPlatform trains a small watchdog-guarded platform; everything
// is deterministic from seed, so a restarted incarnation rebuilds the exact
// same model when its on-disk checkpoint turns out to be unusable.
func buildRecoveryPlatform(t *testing.T, seed uint64) *core.Platform {
	t.Helper()
	sp := dataset.Spec{
		Name: "recovery", Classes: 4, FeatureDim: 6, PerClass: 40,
		Separation: 4, Spread: 1, Seed: seed,
	}
	full, err := sp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	inv, _, err := dataset.SplitRatio(full, 2.0/3.0, mat.NewRNG(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultPlatformConfig(sp.Classes, sp.FeatureDim, seed+3)
	cfg.Epochs = 6
	cfg.Watchdog = nn.WatchdogConfig{Enabled: true}
	p, err := core.NewPlatform(inv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCrashRecoveryComposesJournalAndCheckpoint extends the crash-restart
// scenario of the outcome journal — the detection frames of a segment log
// — with model-state recovery: the process dies with a torn detection frame
// at the log's tail AND a torn platform checkpoint file on disk. The
// restarted incarnation must end up with zero lost tasks and a
// verified-good model — the log yields the completed work, the
// checkpoint's integrity checking rejects the torn file, and the
// deterministic rebuild reproduces the original model bit for bit.
func TestCrashRecoveryComposesJournalAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	logDir := filepath.Join(dir, "log")
	ppath := filepath.Join(dir, "platform.gob")
	ctx := context.Background()
	allShards := e2eShards(6, 2)

	// First incarnation: train the platform, persist it, record 3 of the 6
	// detection outcomes.
	p1 := buildRecoveryPlatform(t, 7)
	if err := core.SavePlatformFile(p1, ppath); err != nil {
		t.Fatal(err)
	}
	log1, err := seglog.Open(logDir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if done := log1.DoneTasks(); len(done) != 0 {
		t.Fatalf("fresh log records outcomes %v", done)
	}
	svc, _ := lake.NewService(e2eDetector{}, 2)
	for _, rep := range svc.Run(ctx, lake.Feed(ctx, allShards[:3], 0)) {
		noisy, clean := rep.Result.SortedIDs()
		if err := log1.AppendDetection(rep.TaskID, noisy, clean, "run1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: the last detection frame is torn mid-write, and the platform
	// checkpoint is torn as well (a non-atomic writer died mid-rewrite).
	tearTail(t, newestSegment(t, logDir), 5)
	if err := fault.TearFile(ppath, 0.6); err != nil {
		t.Fatal(err)
	}

	// Restart. The log recovers its intact prefix and accounts for the
	// dropped tail...
	log2, err := seglog.Open(logDir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	done := log2.DoneTasks()
	if len(done) != 2 {
		t.Fatalf("recovered %d outcomes, want 2", len(done))
	}
	if rec := log2.Stats().Recovery; !rec.TornTail || rec.DroppedRecords != 1 || rec.DroppedBytes <= 0 || rec.Offset <= 0 {
		t.Fatalf("log recovery stats = %+v", rec)
	}

	// ...the torn checkpoint is rejected rather than half-loaded...
	if _, err := core.LoadPlatformFile(ppath); err == nil {
		t.Fatal("torn platform checkpoint loaded successfully")
	}

	// ...so the service falls back to the deterministic rebuild, which must
	// reproduce the first incarnation's model exactly.
	p2 := buildRecoveryPlatform(t, 7)
	if err := p2.Model.CheckFinite(); err != nil {
		t.Fatalf("rebuilt model unhealthy: %v", err)
	}
	for l := range p1.Model.Weights {
		for i, v := range p1.Model.Weights[l].Data {
			if p2.Model.Weights[l].Data[i] != v {
				t.Fatalf("rebuilt model differs at layer %d index %d", l, i)
			}
		}
	}
	if err := core.SavePlatformFile(p2, ppath); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadPlatformFile(ppath); err != nil {
		t.Fatalf("re-persisted checkpoint unreadable: %v", err)
	}

	// The restarted service skips recorded work and finishes the rest:
	// every task is covered exactly once across both incarnations.
	svc2, _ := lake.NewService(e2eDetector{}, 2)
	svc2.SkipCompleted(done)
	covered := map[int]bool{}
	for id := range done {
		covered[id] = true
	}
	for _, rep := range svc2.Run(ctx, lake.Feed(ctx, allShards, 0)) {
		if covered[rep.TaskID] {
			t.Fatalf("task %d processed twice", rep.TaskID)
		}
		covered[rep.TaskID] = true
		noisy, clean := rep.Result.SortedIDs()
		if err := log2.AppendDetection(rep.TaskID, noisy, clean, "run2"); err != nil {
			t.Fatal(err)
		}
	}
	if len(covered) != 6 {
		t.Fatalf("covered %d of 6 tasks: %v", len(covered), covered)
	}
	if got := log2.DoneTasks(); len(got) != 6 {
		t.Fatalf("log records %d of 6 outcomes: %v", len(got), got)
	}
}

// newestSegment returns the path of the highest-numbered segment file of
// the log in dir: its active segment, unless a compaction is in flight.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return segs[len(segs)-1]
}

// tearTail cuts n bytes off the end of the segment at path: a crash in the
// middle of its last append.
func tearTail(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}
