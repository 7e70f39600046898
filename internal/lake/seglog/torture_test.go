package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enld/internal/fault"
	"enld/internal/mat"
)

// tortureHistorySize is the dataset count of the torture log. Short mode
// scales it down; full runs exercise the 10k-dataset history the storage
// benchmarks also use.
func tortureHistorySize(t testing.TB) int {
	if testing.Short() {
		return 1000
	}
	return 10000
}

// tortureTask reports whether buildTortureLog records a detection outcome,
// for task ID i, right after appending dataset i.
func tortureTask(i int) bool { return i%128 == 63 }

// buildTortureLog appends n one-sample datasets (interleaved with periodic
// platform snapshots and detection outcomes) into dir across many small
// segments, and returns the appended dataset IDs in order. Per-append fsync
// is off — torture injects its own damage; it does not need the real thing
// to be slow.
func buildTortureLog(t testing.TB, dir string, n int) []uint64 {
	t.Helper()
	l, err := Open(dir, Options{SegmentTargetBytes: 64 << 10, NoSyncEachAppend: true, AutoCompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		id, err := l.AppendDataset(fmt.Sprintf("d%d", i), testSet(i, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if tortureTask(i) {
			if err := l.AppendDetection(i, []int{i}, []int{i + 1, i + 2}, "torture"); err != nil {
				t.Fatal(err)
			}
		}
		if i%512 == 511 {
			if err := l.SavePlatform([]byte(fmt.Sprintf("snap-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// verifyPrefixOrLoud is the torture postcondition: after arbitrary damage,
// opening the log must either fail loudly with segment/offset context, or
// succeed with a consistent prefix of the original history — datasets and
// detection outcomes alike — and accurate dropped-record accounting. Silent
// corruption — success with a gap, a reordering, or an unaccounted drop —
// is the one forbidden outcome.
// It returns "loud" or "recovered" for outcome bookkeeping.
func verifyPrefixOrLoud(t *testing.T, dir string, ids []uint64, sizeBefore, sizeAfter int64) string {
	t.Helper()
	l, err := Open(dir, Options{SegmentTargetBytes: 64 << 10})
	if err != nil {
		var ce *CorruptionError
		if errors.As(err, &ce) {
			if ce.Segment == "" || ce.Reason == "" {
				t.Fatalf("corruption error without context: %+v", ce)
			}
			return "loud"
		}
		// Non-corruption open errors are acceptable only when they name the
		// damage (manifest errors carry the directory and cause).
		if !strings.Contains(err.Error(), dir) && !strings.Contains(err.Error(), "seglog") {
			t.Fatalf("open failed without context: %v", err)
		}
		return "loud"
	}
	defer l.Close()

	metas, err := l.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) > len(ids) {
		t.Fatalf("recovered %d datasets from a %d-dataset history", len(metas), len(ids))
	}
	for i, m := range metas {
		if m.ID != ids[i] {
			t.Fatalf("recovered dataset %d has ID %d, want prefix ID %d — not a consistent prefix", i, m.ID, ids[i])
		}
	}
	// The outcome of task i was appended between datasets i and i+1, so it
	// survives exactly when dataset i+1 did, and may or may not when the
	// recovered prefix ends at dataset i.
	done := l.DoneTasks()
	for i := 0; i < len(ids); i++ {
		if !tortureTask(i) {
			continue
		}
		switch {
		case i+1 < len(metas) && !done[i]:
			t.Fatalf("outcome of task %d lost, yet %d later datasets recovered", i, len(metas)-i-1)
		case i >= len(metas) && done[i]:
			t.Fatalf("outcome of task %d recovered without dataset %d before it", i, i)
		}
		delete(done, i)
	}
	if len(done) > 0 {
		t.Fatalf("recovered outcomes of tasks never recorded: %v", done)
	}
	rec := l.Stats().Recovery
	if len(metas) < len(ids) && !rec.TornTail {
		t.Fatalf("lost %d datasets with no torn-tail accounting: %+v", len(ids)-len(metas), rec)
	}
	if rec.TornTail {
		if rec.DroppedRecords < 1 || rec.DroppedBytes < 1 || rec.File == "" {
			t.Fatalf("torn tail with empty accounting: %+v", rec)
		}
		if rec.DroppedBytes > sizeAfter {
			t.Fatalf("dropped %d bytes from a %d-byte damaged file", rec.DroppedBytes, sizeAfter)
		}
	}
	return "recovered"
}

// segmentFiles lists the log's segment files in manifest order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m.Segments
}

// TestTortureInjectors drives every fault injector against random positions
// of a large multi-segment history and checks the prefix-or-loud
// postcondition each time.
func TestTortureInjectors(t *testing.T) {
	n := tortureHistorySize(t)
	master := t.TempDir()
	ids := buildTortureLog(t, master, n)

	trials := 8
	if testing.Short() {
		trials = 4
	}
	rng := mat.NewRNG(1312)
	injectors := []struct {
		name   string
		inject func(t *testing.T, path string, size int64)
	}{
		{"tear", func(t *testing.T, path string, size int64) {
			if err := fault.TearFile(path, 0.1+0.8*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-byte", func(t *testing.T, path string, size int64) {
			if err := fault.CorruptFileByte(path, int64(rng.Uint64()%uint64(size))); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate-at", func(t *testing.T, path string, size int64) {
			if err := fault.TruncateAt(path, int64(rng.Uint64()%uint64(size))); err != nil {
				t.Fatal(err)
			}
		}},
		{"duplicate-tail", func(t *testing.T, path string, size int64) {
			if err := fault.DuplicateTail(path, 1+int64(rng.Uint64()%uint64(size))); err != nil {
				t.Fatal(err)
			}
		}},
	}

	outcomes := map[string]int{}
	for _, inj := range injectors {
		inj := inj
		t.Run(inj.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				dir := copyDir(t, master)
				segs := segmentFiles(t, dir)
				// Aim half the trials at the active segment (where lenient
				// recovery applies), half anywhere.
				var target string
				if trial%2 == 0 {
					target = segs[len(segs)-1]
				} else {
					target = segs[rng.Intn(len(segs))]
				}
				path := filepath.Join(dir, target)
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if info.Size() == 0 {
					continue
				}
				inj.inject(t, path, info.Size())
				after, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				out := verifyPrefixOrLoud(t, dir, ids, info.Size(), after.Size())
				outcomes[inj.name+"/"+out]++
			}
		})
	}
	t.Logf("torture outcomes: %v", outcomes)
}

// TestTortureCompactionCrash kills a compaction of the large history (half
// the datasets removed) at every stage and checks each crash state recovers
// the exact live set, detection outcomes included.
func TestTortureCompactionCrash(t *testing.T) {
	n := tortureHistorySize(t)
	master := t.TempDir()
	ids := buildTortureLog(t, master, n)

	l, err := Open(master, Options{SegmentTargetBytes: 64 << 10, NoSyncEachAppend: true, AutoCompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := mat.NewRNG(7707)
	removed := map[uint64]bool{}
	for _, id := range ids {
		if rng.Float64() < 0.5 {
			if err := l.RemoveDataset(id); err != nil {
				t.Fatal(err)
			}
			removed[id] = true
		}
	}
	var want []uint64
	for _, id := range ids {
		if !removed[id] {
			want = append(want, id)
		}
	}

	crashes := map[string]string{}
	l.SetCompactionHook(func(stage string) {
		crashes[stage] = copyDir(t, master)
	})
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, stage := range []string{"segments-written", "manifest-swapped", "old-segments-deleted"} {
		dir, ok := crashes[stage]
		if !ok {
			t.Fatalf("compaction never reached stage %s", stage)
		}
		l2, err := Open(dir, Options{SegmentTargetBytes: 64 << 10})
		if err != nil {
			t.Fatalf("crash at %s: %v", stage, err)
		}
		metas, err := l2.Datasets()
		if err != nil {
			t.Fatal(err)
		}
		if len(metas) != len(want) {
			t.Fatalf("crash at %s: %d datasets recovered, want %d", stage, len(metas), len(want))
		}
		for i, m := range metas {
			if m.ID != want[i] {
				t.Fatalf("crash at %s: dataset %d has ID %d, want %d", stage, i, m.ID, want[i])
			}
		}
		done, recorded := l2.DoneTasks(), 0
		for i := range ids {
			if !tortureTask(i) {
				continue
			}
			recorded++
			if !done[i] {
				t.Fatalf("crash at %s: outcome of task %d lost", stage, i)
			}
		}
		if len(done) != recorded {
			t.Fatalf("crash at %s: %d outcomes recovered, %d recorded", stage, len(done), recorded)
		}
		l2.Close()
	}
}
