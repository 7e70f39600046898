package seglog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"enld/internal/dataset"
	"enld/internal/fault"
	"enld/internal/lake"
)

var _ lake.Inventory = (*Log)(nil)

// testSet builds a small dataset whose sample IDs start at base.
func testSet(base, n int) dataset.Set {
	out := make(dataset.Set, n)
	for i := range out {
		out[i] = dataset.Sample{ID: base + i, X: []float64{float64(i), 1}, Observed: i % 2, True: i % 2}
	}
	return out
}

// copyDir clones every regular file of src into a fresh directory — the
// crash-state capture used by the compaction-stage tests.
func copyDir(t *testing.T, src string) string {
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

// mustOpen opens a log and fails the test on error.
func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// activePath returns the log's active segment file path.
func activePath(t *testing.T, dir string) string {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, m.Segments[len(m.Segments)-1])
}

func TestLogReopenDurability(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	id1, err := l.AppendDataset("a", testSet(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := l.AppendDataset("b", testSet(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SavePlatform([]byte("snap-v1")); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveDataset(id1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	metas, err := l2.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].ID != id2 || metas[0].Name != "b" || metas[0].Size != 2 {
		t.Fatalf("reopened metas = %+v", metas)
	}
	set, err := l2.LoadDataset(id2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].ID != 100 {
		t.Fatalf("reloaded dataset: %d samples, first ID %d", len(set), set[0].ID)
	}
	snap, err := l2.LoadPlatform()
	if err != nil || string(snap) != "snap-v1" {
		t.Fatalf("reloaded platform = %q, %v", snap, err)
	}
	id3, err := l2.AppendDataset("c", testSet(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if id3 <= id2 {
		t.Fatalf("IDs regressed across reopen: %d then %d", id2, id3)
	}
	st := l2.Stats()
	if st.Backend != "seglog" || st.Datasets != 2 || st.DeadBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLogRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentTargetBytes: 2048})
	for i := 0; i < 20; i++ {
		if _, err := l.AppendDataset("d", testSet(i*10, 5)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("no rotation after 20 appends at a 2 KiB target: %d segments", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{SegmentTargetBytes: 2048})
	defer l2.Close()
	metas, _ := l2.Datasets()
	if len(metas) != 20 {
		t.Fatalf("recovered %d datasets across segments, want 20", len(metas))
	}
}

// TestLogTornTailDropped: a torn final record is dropped, counted, and the
// rest of the log survives — the lenient half of the recovery contract.
func TestLogTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if _, err := l.AppendDataset("keep", testSet(0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendDataset("torn", testSet(50, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := activePath(t, dir)
	if err := fault.TearFile(path, 0.6); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	metas, _ := l2.Datasets()
	if len(metas) != 1 || metas[0].Name != "keep" {
		t.Fatalf("after torn tail, metas = %+v", metas)
	}
	rec := l2.Stats().Recovery
	if !rec.TornTail || rec.DroppedRecords != 1 || rec.DroppedBytes <= 0 || rec.File == "" {
		t.Fatalf("recovery stats = %+v", rec)
	}
	// The drop is physical: appending after recovery and reopening again
	// must not resurrect or trip over the torn frame.
	if _, err := l2.AppendDataset("after", testSet(90, 2)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3 := mustOpen(t, dir, Options{})
	defer l3.Close()
	metas, _ = l3.Datasets()
	if len(metas) != 2 || metas[1].Name != "after" {
		t.Fatalf("after reopen, metas = %+v", metas)
	}
	if l3.Stats().Recovery.TornTail {
		t.Fatal("second recovery still reports a torn tail")
	}
}

// TestLogInteriorCorruptionLoud: a flipped byte in a non-final record must
// fail the open with segment and offset context — never a silent drop.
func TestLogInteriorCorruptionLoud(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if _, err := l.AppendDataset("a", testSet(0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendDataset("b", testSet(50, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := activePath(t, dir)
	// Flip a byte inside the first record's payload.
	if err := fault.CorruptFileByte(path, int64(headerSize)+4); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("open err = %v, want CorruptionError", err)
	}
	if ce.Offset != 0 || !strings.Contains(ce.Reason, "checksum") {
		t.Fatalf("corruption context = %+v", ce)
	}
}

// TestLogSealedSegmentNeverLenient: damage at the tail of a sealed (rotated)
// segment is interior damage, not a crash artifact.
func TestLogSealedSegmentNeverLenient(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentTargetBytes: 1024})
	for i := 0; i < 10; i++ {
		if _, err := l.AppendDataset("d", testSet(i*10, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) < 2 {
		t.Fatalf("need a sealed segment, have %d", len(m.Segments))
	}
	if err := fault.TearFile(filepath.Join(dir, m.Segments[0]), 0.5); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{SegmentTargetBytes: 1024})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("open err = %v, want CorruptionError", err)
	}
	if ce.Segment != m.Segments[0] {
		t.Fatalf("corruption blamed on %s, want %s", ce.Segment, m.Segments[0])
	}
}

// TestLogDuplicateRecordLoud: a re-appended (duplicated) final frame is a
// sequence regression and must fail loudly with its offset.
func TestLogDuplicateRecordLoud(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if _, err := l.AppendDataset("a", testSet(0, 3)); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(activePath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendDataset("b", testSet(50, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := activePath(t, dir)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.DuplicateTail(path, after.Size()-before.Size()); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("open err = %v, want CorruptionError", err)
	}
	if ce.Offset != after.Size() || !strings.Contains(ce.Reason, "regression") {
		t.Fatalf("duplicate-record context = %+v", ce)
	}
}

// TestLogTruncateMidRecordDropped: truncation inside the final record (the
// torn-append shape TruncateAt injects) drops exactly that record.
func TestLogTruncateMidRecordDropped(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if _, err := l.AppendDataset("keep", testSet(0, 3)); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(activePath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendDataset("cut", testSet(50, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := activePath(t, dir)
	if err := fault.TruncateAt(path, before.Size()+int64(headerSize)+2); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	metas, _ := l2.Datasets()
	if len(metas) != 1 || metas[0].Name != "keep" {
		t.Fatalf("after truncation, metas = %+v", metas)
	}
	rec := l2.Stats().Recovery
	if !rec.TornTail || rec.Offset != before.Size() {
		t.Fatalf("recovery stats = %+v, want drop at %d", rec, before.Size())
	}
}

// TestLogCompactionFoldsDeadRecords: compaction reclaims removed datasets
// and superseded platform snapshots, and the compacted log replays
// identically.
func TestLogCompactionFoldsDeadRecords(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentTargetBytes: 2048, AutoCompactRatio: -1})
	var ids []uint64
	for i := 0; i < 12; i++ {
		id, err := l.AppendDataset("d", testSet(i*10, 5))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:8] {
		if err := l.RemoveDataset(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := l.SavePlatform([]byte(strings.Repeat("s", 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.DeadBytes == 0 {
		t.Fatal("no dead bytes to compact")
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.DeadBytes != 0 || after.LiveBytes >= before.LiveBytes+before.DeadBytes || after.Compactions != 1 {
		t.Fatalf("compaction accounting: before %+v, after %+v", before, after)
	}
	// The compacted log keeps accepting appends and replays identically.
	idNew, err := l.AppendDataset("post", testSet(900, 2))
	if err != nil {
		t.Fatal(err)
	}
	if idNew <= ids[len(ids)-1] {
		t.Fatalf("post-compaction ID regressed: %d after %d", idNew, ids[len(ids)-1])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{SegmentTargetBytes: 2048})
	defer l2.Close()
	metas, _ := l2.Datasets()
	if len(metas) != 5 {
		t.Fatalf("recovered %d datasets after compaction, want 5", len(metas))
	}
	snap, err := l2.LoadPlatform()
	if err != nil || len(snap) != 102 {
		t.Fatalf("platform after compaction: %d bytes, %v", len(snap), err)
	}
}

// TestLogCompactionCrashStages reopens crash-state copies captured at each
// compaction stage: before the manifest swap the old state must recover
// (new segments swept as strays), after it the new state must recover (old
// segments swept). Either way, the same live data.
func TestLogCompactionCrashStages(t *testing.T) {
	for _, stage := range []string{"segments-written", "manifest-swapped", "old-segments-deleted"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{SegmentTargetBytes: 2048, AutoCompactRatio: -1})
			var ids []uint64
			for i := 0; i < 12; i++ {
				id, err := l.AppendDataset("d", testSet(i*10, 5))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			for _, id := range ids[:6] {
				if err := l.RemoveDataset(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.SavePlatform([]byte("snap")); err != nil {
				t.Fatal(err)
			}

			var crashed string
			l.compactHook = func(s string) {
				if s == stage {
					crashed = copyDir(t, dir)
				}
			}
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			if crashed == "" {
				t.Fatalf("stage %s never reached", stage)
			}
			l.Close()

			l2 := mustOpen(t, crashed, Options{SegmentTargetBytes: 2048})
			defer l2.Close()
			metas, _ := l2.Datasets()
			if len(metas) != 6 {
				t.Fatalf("crash at %s: recovered %d datasets, want 6", stage, len(metas))
			}
			for i, m := range metas {
				if m.ID != ids[6+i] {
					t.Fatalf("crash at %s: metas = %+v", stage, metas)
				}
			}
			snap, err := l2.LoadPlatform()
			if err != nil || string(snap) != "snap" {
				t.Fatalf("crash at %s: platform = %q, %v", stage, snap, err)
			}
			// IDs must not be reused after recovery from the crash state.
			idNew, err := l2.AppendDataset("post", testSet(0, 1))
			if err != nil {
				t.Fatal(err)
			}
			if idNew <= ids[len(ids)-1] {
				t.Fatalf("crash at %s: ID reuse: %d after %d", stage, idNew, ids[len(ids)-1])
			}
		})
	}
}

// TestLogAutoCompaction: crossing the dead-byte ratio triggers a background
// compaction without any explicit call.
func TestLogAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{AutoCompactRatio: 0.3, AutoCompactMinBytes: 1})
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := l.AppendDataset("d", testSet(i*10, 5))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:8] {
		if err := l.RemoveDataset(id); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for the background compaction.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := l2.Stats(); got.Datasets != 2 {
		t.Fatalf("after auto compaction, stats = %+v", got)
	}
}

// TestLogFreshInitCrashRedone: a crash between creating the first segment
// and writing the manifest leaves an empty stray; the next open must
// re-initialize, while a NON-empty unmanifested segment must refuse.
func TestLogFreshInitCrashRedone(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentFileName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir, Options{})
	if _, err := l.AppendDataset("a", testSet(0, 1)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, segmentFileName(1)), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2, Options{}); err == nil {
		t.Fatal("open over unmanifested data succeeded")
	}
}

// dirFiles reads every regular file of dir, keyed by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// liveFrames reads every frame the manifest's segments hold, keyed by
// sequence number.
func liveFrames(t *testing.T, dir string) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	for _, name := range segmentFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := readSegment(name, data, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, ra := range recs {
			out[ra.rec.Seq] = frameBytes(data, ra)
		}
	}
	return out
}

// TestLogReadPathDamageLoud: a live frame damaged while the log is open
// fails its load and any compaction loudly, with segment and offset — the
// log never answers from a stale copy — and leaves everything else usable.
func TestLogReadPathDamageLoud(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{AutoCompactRatio: -1})
	defer l.Close()
	keep, err := l.AppendDataset("keep", testSet(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := l.AppendDataset("bad", testSet(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	gone, err := l.AppendDataset("gone", testSet(80, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SavePlatform([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveDataset(gone); err != nil {
		t.Fatal(err)
	}
	loc := l.datasets[bad].frameLoc
	if err := fault.CorruptFileByte(filepath.Join(dir, loc.segment), loc.off+int64(headerSize)+4); err != nil {
		t.Fatal(err)
	}
	atFrame := func(op string, err error) {
		t.Helper()
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("%s err = %v, want CorruptionError", op, err)
		}
		if ce.Segment != loc.segment || ce.Offset != loc.off || !strings.Contains(ce.Reason, "checksum") {
			t.Fatalf("%s corruption context = %+v, want segment %s offset %d", op, ce, loc.segment, loc.off)
		}
	}

	_, err = l.LoadDataset(bad)
	atFrame("load", err)

	before := dirFiles(t, dir)
	atFrame("compact", l.Compact())
	after := dirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("failed compaction left %d files, had %d", len(after), len(before))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("failed compaction changed %s", name)
		}
	}

	id, err := l.AppendDataset("after", testSet(90, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		id   uint64
		base int
	}{{keep, 0}, {id, 90}} {
		set, err := l.LoadDataset(want.id)
		if err != nil || set[0].ID != want.base {
			t.Fatalf("load %d after damage elsewhere: %v, %v", want.id, set, err)
		}
	}
	if snap, err := l.LoadPlatform(); err != nil || string(snap) != "snap" {
		t.Fatalf("platform after damage elsewhere = %q, %v", snap, err)
	}
}

// TestLogDiskCopyIsAuthoritative: the log keeps no reference to what the
// caller passed in, and every load decodes a fresh copy, so mutating either
// side never changes what the next load returns.
func TestLogDiskCopyIsAuthoritative(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	set, snap := testSet(0, 4), []byte("snap")
	id, err := l.AppendDataset("a", set)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SavePlatform(snap); err != nil {
		t.Fatal(err)
	}
	set[0].X[0] = 99
	set[1] = dataset.Sample{ID: -1}
	snap[0] = 'X'

	want := testSet(0, 4)
	for i := 0; i < 2; i++ {
		got, err := l.LoadDataset(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("load %d = %+v, want %+v", i, got, want)
		}
		got[2].X[1] = -5
	}
	if got, err := l.LoadPlatform(); err != nil || string(got) != "snap" {
		t.Fatalf("platform = %q, %v", got, err)
	}
}

// TestLogConcurrentLoadAppendCompact: loads racing appends, removes and
// compactions return the dataset asked for. Under -race it also checks that
// the index is touched only under the mutex, decoding outside it.
func TestLogConcurrentLoadAppendCompact(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{SegmentTargetBytes: 2048, NoSyncEachAppend: true, AutoCompactRatio: -1})
	defer l.Close()
	var ids []uint64
	for i := 0; i < 20; i++ {
		id, err := l.AppendDataset("d", testSet(i*10, 3))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	const readers = 3
	errs := make(chan error, readers+1) // at most one per goroutine
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			id, err := l.AppendDataset("w", testSet(1000+i, 3))
			if err == nil {
				err = l.RemoveDataset(id)
			}
			if err == nil && i%5 == 0 {
				err = l.Compact()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + r) % len(ids)
				set, err := l.LoadDataset(ids[k])
				if err == nil && (len(set) != 3 || set[0].ID != k*10) {
					err = fmt.Errorf("load of dataset %d returned %+v", ids[k], set)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLogCompactionCopiesFramesVerbatim: compaction moves frames, it does
// not rewrite them — every live frame is byte-identical before and after.
func TestLogCompactionCopiesFramesVerbatim(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentTargetBytes: 2048, AutoCompactRatio: -1})
	defer l.Close()
	for i := 0; i < 12; i++ {
		id, err := l.AppendDataset("d", testSet(i*10, 5))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := l.RemoveDataset(id); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 0 {
			if err := l.SavePlatform([]byte(strings.Repeat("s", 50+i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := liveFrames(t, dir)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	after := liveFrames(t, dir)
	if len(after) != 7 {
		t.Fatalf("compacted log holds %d frames, want 6 datasets + 1 platform", len(after))
	}
	for seq, frame := range after {
		if !bytes.Equal(frame, before[seq]) {
			t.Fatalf("frame seq %d changed across compaction", seq)
		}
	}
}

// TestLogIndexHeapPerDataset pins what the index costs: the live heap grows
// by the same amount per appended dataset whatever its sample count, and by
// at most 1 KB.
func TestLogIndexHeapPerDataset(t *testing.T) {
	const n = 2000
	liveHeap := func() uint64 {
		// Twice: the first collection only moves sync.Pool contents to
		// their victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perDataset := func(samples int) float64 {
		l := mustOpen(t, t.TempDir(), Options{NoSyncEachAppend: true, AutoCompactRatio: -1})
		defer l.Close()
		set := testSet(0, samples)
		if _, err := l.AppendDataset("d", set); err != nil { // one-time allocations stay out of the count
			t.Fatal(err)
		}
		before := liveHeap()
		for i := 0; i < n; i++ {
			if _, err := l.AppendDataset("d", set); err != nil {
				t.Fatal(err)
			}
		}
		return (float64(liveHeap()) - float64(before)) / n
	}
	perDataset(200) // first rotation and manifest write fill package caches
	small, large := perDataset(20), perDataset(200)
	t.Logf("live heap per dataset: %.1f B at 20 samples, %.1f B at 200", small, large)
	if large > 1024 || small > 1024 {
		t.Fatalf("index costs %.1f / %.1f B per dataset, want ≤ 1 KB", small, large)
	}
	if math.Abs(large-small) > 0.1*small {
		t.Fatalf("index cost grows with samples: %.1f B at 20, %.1f B at 200", small, large)
	}
}

// TestLogStraySweep: files a crashed rotation or atomic write would leave
// are removed at open; unknown files are left alone.
func TestLogStraySweep(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if _, err := l.AppendDataset("a", testSet(0, 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	for _, name := range []string{segmentFileName(99), manifestName + ".tmp-123", "seg-00000042.log.tmp-7"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "NOTES.txt")
	if err := os.WriteFile(keep, []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := l2.StraysRemoved(); got != 3 {
		t.Fatalf("swept %d strays, want 3", got)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("sweep removed an unrelated file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentFileName(99))); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray segment survived the sweep")
	}
}

// detection is a decoded detection frame.
type detection struct {
	Kind  recordKind
	ID    uint64
	Noisy []int
	Clean []int
	Note  string
}

// loadDetection reads task taskID's outcome frame back through the log's
// own load path.
func loadDetection(t *testing.T, l *Log, taskID int) detection {
	t.Helper()
	var det detection
	err := l.load(func() (frameLoc, error) {
		loc, ok := l.detections[taskID]
		if !ok {
			return frameLoc{}, fmt.Errorf("no outcome for task %d", taskID)
		}
		return loc, nil
	}, kindDetection, func(h recordHead, d *decoder) {
		det.Kind, det.ID = h.Kind, h.ID
		det.Note, det.Noisy, det.Clean = d.detection()
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestLogDetectionFramesSurviveReopenAndCompact: detection outcomes are
// live frames like any other. They survive reopen and compaction with their
// ID lists intact, a later outcome of the same task supersedes the earlier
// one, and they do not disturb dataset IDs.
func TestLogDetectionFramesSurviveReopenAndCompact(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentTargetBytes: 512, AutoCompactRatio: -1})
	want := map[int]detection{
		0:  {Noisy: []int{1, 3}, Clean: []int{0, 2}, Note: "first"},
		7:  {Noisy: nil, Clean: []int{70, 71, 72}, Note: "all clean"},
		-2: {Noisy: []int{5}, Clean: nil, Note: "negative task ID"},
	}
	id1, err := l.AppendDataset("a", testSet(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []int{0, 7, -2} {
		w := want[task]
		if err := l.AppendDetection(task, w.Noisy, w.Clean, w.Note); err != nil {
			t.Fatal(err)
		}
	}
	// Superseding task 0's outcome leaves the first frame dead.
	if err := l.AppendDetection(0, []int{9}, []int{8}, "second"); err != nil {
		t.Fatal(err)
	}
	want[0] = detection{Noisy: []int{9}, Clean: []int{8}, Note: "second"}
	id2, err := l.AppendDataset("b", testSet(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1+1 {
		t.Fatalf("dataset IDs %d then %d: detection frames took IDs", id1, id2)
	}
	if st := l.Stats(); st.DeadBytes == 0 {
		t.Fatalf("superseded outcome not counted dead: %+v", st)
	}

	check := func(stage string, l *Log) {
		t.Helper()
		if got := l.DoneTasks(); !reflect.DeepEqual(got, map[int]bool{0: true, 7: true, -2: true}) {
			t.Fatalf("%s: DoneTasks = %v", stage, got)
		}
		for task, w := range want {
			got := loadDetection(t, l, task)
			if got.Kind != kindDetection || uint64(task) != got.ID || got.Note != w.Note ||
				!reflect.DeepEqual(got.Noisy, w.Noisy) || !reflect.DeepEqual(got.Clean, w.Clean) {
				t.Fatalf("%s: task %d outcome = %+v, want %+v", stage, task, got, w)
			}
		}
		if metas, _ := l.Datasets(); len(metas) != 2 {
			t.Fatalf("%s: %d datasets, want 2", stage, len(metas))
		}
	}
	check("live", l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, dir, Options{SegmentTargetBytes: 512, AutoCompactRatio: -1})
	check("reopened", l)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.DeadBytes != 0 {
		t.Fatalf("compaction left dead bytes: %+v", st)
	}
	check("compacted", l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, dir, Options{SegmentTargetBytes: 512})
	check("compacted and reopened", l)
	if id3, err := l.AppendDataset("c", testSet(20, 1)); err != nil || id3 != id2+1 {
		t.Fatalf("dataset ID after recovery = %d, %v; want %d: recovered outcomes took IDs", id3, err, id2+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDetection(1, nil, nil, ""); !errors.Is(err, lake.ErrInventoryClosed) {
		t.Fatalf("append after close err = %v", err)
	}
}

// TestLogDetectionInteriorCorruptionLoud: a flipped byte inside a detection
// frame that is not the last frame of the log fails the open with its
// segment and offset. Outcomes are never dropped silently from the middle
// of the history.
func TestLogDetectionInteriorCorruptionLoud(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for task := 0; task < 3; task++ {
		if err := l.AppendDetection(task, []int{task}, []int{task + 10}, "outcome"); err != nil {
			t.Fatal(err)
		}
	}
	loc := l.detections[1]
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{4, loc.size - int64(headerSize) - 1} {
		damaged := copyDir(t, dir)
		if err := fault.CorruptFileByte(filepath.Join(damaged, loc.segment), loc.off+int64(headerSize)+at); err != nil {
			t.Fatal(err)
		}
		_, err := Open(damaged, Options{})
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("payload byte %d flipped: open err = %v, want CorruptionError", at, err)
		}
		if ce.Segment != loc.segment || ce.Offset != loc.off || !strings.Contains(ce.Reason, "checksum") {
			t.Fatalf("payload byte %d flipped: corruption context = %+v, want offset %d", at, ce, loc.off)
		}
	}
}

// v1Dataset and v1Platform are version-1 frames as the gob encoding wrote
// them: a dataset "v1" of one sample (ID 7, X {1.5, −2}, observed 1, true 0)
// at seq 1, and a platform snapshot "snap" at seq 2.
const (
	v1Dataset  = "454e4c445347000100000000000000cf0e4bc8634e7f030101067265636f726401ff80000106010353657101060001044b696e640106000102494401060001044e616d65010c00010753616d706c657301ff86000108536e617073686f74010a00000012ff850201010353657401ff860001ff82000038ff810301010653616d706c6501ff820001040102494401040001015801ff840001084f62736572766564010400010454727565010400000017ff83020101095b5d666c6f6174363401ff8400010800001bff80010101010101010276310101010e0102fef83fffc001020000"
	v1Platform = "454e4c445347000100000000000000c105efcc454e7f030101067265636f726401ff80000106010353657101060001044b696e640106000102494401060001044e616d65010c00010753616d706c657301ff86000108536e617073686f74010a00000012ff850201010353657401ff860001ff82000038ff810301010653616d706c6501ff820001040102494401040001015801ff840001084f62736572766564010400010454727565010400000017ff83020101095b5d666c6f6174363401ff8400010800000dff80010201020404736e617000"
)

// TestLogRefusesVersion1Frames: a store written by the gob encoding is
// refused with a *CorruptionError naming version 1 at the frame's offset,
// also when the version-1 frame is the last one of the active segment,
// where a torn append would be dropped.
func TestLogRefusesVersion1Frames(t *testing.T) {
	hexFrame := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	v2 := codecRecord{seq: 1, kind: kindDataset, id: 1, name: "v2", set: testSet(0, 2)}.frame()
	for _, tc := range []struct {
		name    string
		segment []byte
		at      int64
	}{
		{"all version 1", append(hexFrame(v1Dataset), hexFrame(v1Platform)...), 0},
		{"version 1 tail", append(append([]byte{}, v2...), hexFrame(v1Platform)...), int64(len(v2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			name := segmentFileName(1)
			if err := os.WriteFile(filepath.Join(dir, name), tc.segment, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := writeManifest(dir, manifest{Segments: []string{name}, NextSegment: 2, MinNextSeq: 1, MinNextDatasetID: 1}); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, Options{})
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				if l != nil {
					l.Close()
				}
				t.Fatalf("open err = %v, want CorruptionError", err)
			}
			if ce.Segment != name || ce.Offset != tc.at || !strings.Contains(ce.Reason, "version 1") {
				t.Fatalf("corruption context = %+v, want version 1 at %s offset %d", ce, name, tc.at)
			}
			after, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil || !bytes.Equal(after, tc.segment) {
				t.Fatalf("refused open changed the segment (%v)", err)
			}
		})
	}
}

// TestAppendDatasetAllocations pins the encode cost of a steady-state
// append of an emnist-sized dataset (270 samples, 24 features): the frame is
// the one allocation that scales with the set, and the rest is the index
// entry. Rotation (a manifest write every few dozen such appends) is kept
// out of the measured window by a segment target larger than it.
func TestAppendDatasetAllocations(t *testing.T) {
	set := make(dataset.Set, 270)
	for i := range set {
		x := make([]float64, 24)
		for j := range x {
			x[j] = float64(i*24+j) / 7
		}
		set[i] = dataset.Sample{ID: 1000 + i, X: x, Observed: i % 10, True: (i + i/9) % 10}
	}
	frameSize := len(datasetFrame("emnist", set))
	l := mustOpen(t, t.TempDir(), Options{SegmentTargetBytes: 1 << 30, NoSyncEachAppend: true, AutoCompactRatio: -1})
	defer l.Close()
	appendOnce := func() {
		if _, err := l.AppendDataset("emnist", set); err != nil {
			t.Fatal(err)
		}
	}
	appendOnce()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, appendOnce)
	runtime.ReadMemStats(&after)
	perAppend := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("append: %.0f allocs, %.0f B for a %d-byte frame", allocs, perAppend, frameSize)
	if allocs > 4 {
		t.Fatalf("append allocates %.0f times, want ≤ 4", allocs)
	}
	if perAppend > 1.2*float64(frameSize) {
		t.Fatalf("append allocates %.0f B, want ≤ 1.2 × the %d-byte frame", perAppend, frameSize)
	}
}

// TestDecodeRejectsOverlongCountsUnallocated: a declared count or length
// that overruns the payload is an error before anything sized by it is
// allocated.
func TestDecodeRejectsOverlongCountsUnallocated(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	oneSample := append(binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(nil, 1), 0), 0), huge...)
	for _, tc := range []struct {
		name   string
		decode func(*decoder)
		body   []byte
	}{
		{"samples", func(d *decoder) { d.count(4) }, huge},
		{"features", func(d *decoder) { d.samples(1) }, oneSample},
		{"list", func(d *decoder) { d.list() }, huge},
		{"blob", func(d *decoder) { d.blob() }, huge},
	} {
		body := append(tc.body, make([]byte, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := decoder{b: body}
		tc.decode(&d)
		runtime.ReadMemStats(&after)
		if d.err == nil {
			t.Fatalf("%s: a count of 2^40 in %d bytes decoded", tc.name, len(body))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
			t.Fatalf("%s: rejecting the count allocated %d B", tc.name, grew)
		}
	}
}

// TestLogConcurrentAppendsReopenBitIdentical: datasets appended from 8
// goroutines at once, across segment rotations, all load back bit-identical
// after a reopen, and the frames on disk carry strictly increasing sequence
// numbers.
func TestLogConcurrentAppendsReopenBitIdentical(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentTargetBytes: 4096, NoSyncEachAppend: true, AutoCompactRatio: -1})
	const writers, each = 8, 25
	sets := make([][]dataset.Set, writers)
	ids := make([][]uint64, writers)
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				set := testSet(w*1000+i*10, 1+i%4)
				set[0].X = []float64{math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(w)), math.Copysign(0, -1)}
				set[len(set)-1].Observed = dataset.Missing
				id, err := l.AppendDataset(fmt.Sprintf("w%d-%d", w, i), set)
				if err != nil {
					errs <- err
					return
				}
				sets[w] = append(sets[w], set)
				ids[w] = append(ids[w], id)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, dir, Options{})
	defer l.Close()
	for w := range sets {
		for i, want := range sets[w] {
			got, err := l.LoadDataset(ids[w][i])
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecord(codecRecord{set: got}, codecRecord{set: want}) {
				t.Fatalf("dataset %d of writer %d = %+v, want %+v", i, w, got, want)
			}
		}
	}
	last, frames := uint64(0), 0
	for _, name := range segmentFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := readSegment(name, data, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, ra := range recs {
			if ra.rec.Seq <= last {
				t.Fatalf("%s offset %d: seq %d after %d", name, ra.off, ra.rec.Seq, last)
			}
			last = ra.rec.Seq
			frames++
		}
	}
	if frames != writers*each {
		t.Fatalf("log holds %d frames, want %d", frames, writers*each)
	}
}
