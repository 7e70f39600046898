// The composed storage crash test lives in an external test package: the
// seglog backend imports lake, so package lake's own tests cannot import it
// back.
package lake_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"enld/internal/core"
	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/lake"
	"enld/internal/lake/seglog"
	"enld/internal/mat"
)

// e2eDetector marks odd IDs noisy (the workload's ground truth).
type e2eDetector struct{}

func (e2eDetector) Name() string { return "e2e-odd" }

func (e2eDetector) Detect(d dataset.Set) (*detect.Result, error) {
	res := detect.NewResult()
	for _, smp := range d {
		if smp.ID%2 == 1 {
			res.MarkNoisy(smp.ID)
		} else {
			res.MarkClean(smp.ID)
		}
	}
	return res, nil
}

// e2eShards builds n incremental datasets of size samples each.
func e2eShards(n, size int) []dataset.Set {
	out := make([]dataset.Set, n)
	id := 0
	for i := range out {
		for j := 0; j < size; j++ {
			s := dataset.Sample{ID: id, X: []float64{float64(id), 1}, Observed: id % 3, True: id % 3}
			if id%2 == 1 {
				s.True = (s.Observed + 1) % 3
			}
			out[i] = append(out[i], s)
			id++
		}
	}
	return out
}

// e2ePlatform trains a small deterministic platform.
func e2ePlatform(t *testing.T, seed uint64) *core.Platform {
	t.Helper()
	sp := dataset.Spec{
		Name: "e2e", Classes: 3, FeatureDim: 5, PerClass: 30,
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
	cfg.Epochs = 4
	p, err := core.NewPlatform(inv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCrashRecoveryComposesSeglogAndJournal is the storage engine's
// composed crash scenario: arrivals, the platform snapshot and the outcome
// journal — the detection frames — share one segment log, and the process
// dies in the middle of its compaction (new segments on disk, manifest not
// yet swapped) AND with the final detection frame torn. The restarted
// incarnation must recover a bit-identical platform snapshot, keep every
// durably appended arrival and every intact outcome, and finish the
// workload with zero lost tasks — every task covered exactly once across
// both incarnations.
func TestCrashRecoveryComposesSeglogAndJournal(t *testing.T) {
	storeDir := t.TempDir()
	ctx := context.Background()
	allShards := e2eShards(6, 4)

	// First incarnation: platform into the log, 3 of 6 tasks served with
	// durable arrival storage.
	inv1, err := seglog.Open(storeDir, seglog.Options{SegmentTargetBytes: 2048, AutoCompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	p1 := e2ePlatform(t, 11)
	if err := core.SavePlatformInventory(p1, inv1); err != nil {
		t.Fatal(err)
	}
	wantSnap, err := inv1.LoadPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := lake.NewService(e2eDetector{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc1.SetInventory(inv1)
	reports := svc1.Run(ctx, lake.Feed(ctx, allShards[:3], 0))

	// Re-saving the platform supersedes the first snapshot record — the
	// dead bytes that make compaction do real work.
	if err := core.SavePlatformInventory(p1, inv1); err != nil {
		t.Fatal(err)
	}
	// Each task's outcome goes into the same log, last.
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
		noisy, clean := rep.Result.SortedIDs()
		if err := inv1.AppendDetection(rep.TaskID, noisy, clean, "run1"); err != nil {
			t.Fatal(err)
		}
	}
	if done := inv1.DoneTasks(); len(done) != 3 {
		t.Fatalf("log records %d of 3 outcomes", len(done))
	}

	// Crash mid-compaction: capture the disk state after the new segments
	// are written but before the manifest swap commits them.
	active := filepath.Base(newestSegment(t, storeDir))
	var crashedStore string
	inv1.SetCompactionHook(func(stage string) {
		if stage == "segments-written" {
			crashedStore = copyTree(t, storeDir)
		}
	})
	if err := inv1.Compact(); err != nil {
		t.Fatal(err)
	}
	if crashedStore == "" {
		t.Fatal("compaction hook never fired")
	}
	inv1.Close()

	// ...and with the final detection frame torn: the crash cut the last
	// append of the segment the old manifest still names as active.
	tearTail(t, filepath.Join(crashedStore, active), 5)

	// Restart on the crashed state. The segment log recovers from the
	// half-finished compaction (the uncommitted new segments are swept as
	// strays)...
	inv2, err := seglog.Open(crashedStore, seglog.Options{SegmentTargetBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer inv2.Close()
	if inv2.StraysRemoved() == 0 {
		t.Fatal("crashed compaction left no strays to sweep")
	}

	// ...drops the torn outcome, accounts for it and keeps the intact two...
	if rec := inv2.Stats().Recovery; !rec.TornTail || rec.DroppedRecords != 1 || rec.File != active {
		t.Fatalf("log recovery stats = %+v", rec)
	}
	done := inv2.DoneTasks()
	if len(done) != 2 || !done[0] || !done[1] {
		t.Fatalf("recovered outcomes %v, want tasks 0 and 1", done)
	}

	// ...with the platform snapshot bit-identical to the first
	// incarnation's...
	gotSnap, err := inv2.LoadPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatalf("platform snapshot differs after crash recovery: %d vs %d bytes", len(gotSnap), len(wantSnap))
	}
	if _, err := core.LoadPlatformInventory(inv2); err != nil {
		t.Fatalf("recovered platform unusable: %v", err)
	}

	// ...and every durably appended arrival intact.
	metas, err := inv2.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	arrived := map[string]bool{}
	for _, m := range metas {
		arrived[m.Name] = true
	}
	for i := 0; i < 3; i++ {
		if !arrived[fmt.Sprintf("task-%d", i)] {
			t.Fatalf("arrival task-%d lost in crash: %v", i, arrived)
		}
	}

	// The restarted service skips the recorded tasks and completes the
	// rest: zero lost tasks across both incarnations.
	svc2, err := lake.NewService(e2eDetector{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc2.SetInventory(inv2)
	svc2.SkipCompleted(done)
	covered := map[int]bool{}
	for id := range done {
		covered[id] = true
	}
	for _, rep := range svc2.Run(ctx, lake.Feed(ctx, allShards, 0)) {
		if rep.Err != nil {
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
		if covered[rep.TaskID] {
			t.Fatalf("task %d processed twice", rep.TaskID)
		}
		covered[rep.TaskID] = true
		noisy, clean := rep.Result.SortedIDs()
		if err := inv2.AppendDetection(rep.TaskID, noisy, clean, "run2"); err != nil {
			t.Fatal(err)
		}
	}
	if len(covered) != 6 {
		t.Fatalf("covered %d of 6 tasks: %v", len(covered), covered)
	}
	if got := inv2.DoneTasks(); len(got) != 6 {
		t.Fatalf("log records %d of 6 outcomes: %v", len(got), got)
	}
}

// TestJournalConcurrentAppend: the service files reports from every worker
// at once, and each report's outcome appended to the log's outcome journal
// — its detection frames — from OnReport lands there: all of them, durably,
// once the log is reopened.
func TestJournalConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := seglog.Open(dir, seglog.Options{SegmentTargetBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	svc, err := lake.NewService(e2eDetector{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetInventory(l)
	svc.OnReport = func(rep lake.Report) {
		noisy, clean := rep.Result.SortedIDs()
		if err := l.AppendDetection(rep.TaskID, noisy, clean, "concurrent"); err != nil {
			t.Error(err)
		}
	}
	ctx := context.Background()
	if reports := svc.Run(ctx, lake.Feed(ctx, e2eShards(n, 3), 0)); len(reports) != n {
		t.Fatalf("%d reports, want %d", len(reports), n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = seglog.Open(dir, seglog.Options{SegmentTargetBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := l.DoneTasks()
	for task := 0; task < n; task++ {
		if !done[task] {
			t.Fatalf("outcome of task %d missing after reopen (%d of %d recorded)", task, len(done), n)
		}
	}
	if st := l.Stats(); st.Datasets != n || st.Segments < 2 {
		t.Fatalf("stats after reopen = %+v, want %d datasets over several segments", st, n)
	}
}

// copyTree clones every regular file of src into a fresh directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
