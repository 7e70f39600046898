package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"enld/internal/dataset"
	"enld/internal/fsio"
	"enld/internal/lake"
)

// Options tunes a Log. The zero value is production-ready.
type Options struct {
	// SegmentTargetBytes rotates the active segment once it reaches this
	// size (default 4 MiB). Records are never split: a segment holds at
	// least one record however large.
	SegmentTargetBytes int64
	// NoSyncEachAppend skips the per-append fsync, leaving durability to
	// segment rotation and Close. Crash-window appends may then be lost
	// (but never corrupt the log — the torn tail is dropped on recovery).
	// For benchmarks and bulk loads; leave false in production.
	NoSyncEachAppend bool
	// AutoCompactRatio starts a background compaction when dead bytes
	// exceed this fraction of the log (default 0.5; negative disables).
	AutoCompactRatio float64
	// AutoCompactMinBytes is the dead-byte floor below which auto
	// compaction never triggers (default 1 MiB), so small logs don't churn.
	AutoCompactMinBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentTargetBytes <= 0 {
		o.SegmentTargetBytes = 4 << 20
	}
	if o.AutoCompactRatio == 0 {
		o.AutoCompactRatio = 0.5
	}
	if o.AutoCompactMinBytes <= 0 {
		o.AutoCompactMinBytes = 1 << 20
	}
	return o
}

// frameLoc locates one live frame on disk. size is the framed length
// (header + payload), counted dead when the record is superseded.
type frameLoc struct {
	seq       uint64
	segment   string
	off, size int64
}

// datasetEntry is the in-memory index of one live dataset: what Datasets
// and Stats report, and where its frame lives.
type datasetEntry struct {
	name    string
	samples int
	frameLoc
}

// Log is the append-only segment-log inventory. It implements
// lake.Inventory, and also keeps the lake's detection outcomes
// (AppendDetection, DoneTasks) so a restarted run knows which tasks are
// done. Memory holds only frame positions (plus each dataset's name and
// sample count), so it grows with datasets and tasks, not samples; the
// frames on disk are the only copy, and loads read, check and decode one.
// It is safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	closed bool

	// manifest state (mirrored on disk).
	segments   []string
	nextSeg    uint64
	nextSeq    uint64
	nextID     uint64
	sealedSize map[string]int64 // sealed segment name → byte size

	// active segment.
	active     *os.File
	activeName string
	activeSize int64

	// live state: the index of live frames.
	order      []uint64
	datasets   map[uint64]datasetEntry
	platform   *frameLoc // nil until a snapshot is saved
	detections map[int]frameLoc

	liveBytes int64
	deadBytes int64

	appends     uint64
	compactions uint64
	recovery    lake.RecoveryStats
	// straysRemoved counts crash artifacts swept at open.
	straysRemoved int

	// compactPending dedups background compaction triggers; compactWG
	// tracks the in-flight goroutine so Close can wait for it.
	compactPending bool
	compactWG      sync.WaitGroup
	// compactHook, when set by tests, is called at each named stage of a
	// compaction so crash states can be captured between stages.
	compactHook func(stage string)

	obs *logObs
}

// Open opens (or creates) a segment log in dir. Recovery reads every
// manifest-named segment, drops and counts a torn tail on the active
// segment, fails loudly on interior corruption, and sweeps stray files left
// by a crashed rotation or compaction.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: open %s: %w", dir, err)
	}
	l := &Log{
		dir:        dir,
		opts:       opts,
		datasets:   make(map[uint64]datasetEntry),
		detections: make(map[int]frameLoc),
		sealedSize: make(map[string]int64),
	}

	m, err := readManifest(dir)
	switch {
	case err == nil:
	case errors.Is(err, os.ErrNotExist):
		if m, err = initFresh(dir); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	l.segments = append([]string(nil), m.Segments...)
	l.nextSeg = m.NextSegment
	l.nextSeq = m.MinNextSeq
	l.nextID = m.MinNextDatasetID
	if l.nextSeq == 0 {
		l.nextSeq = 1
	}
	if l.nextID == 0 {
		l.nextID = 1
	}

	if err := l.recover(); err != nil {
		return nil, err
	}

	// Sweep crash artifacts only after recovery committed to this manifest
	// view, so a failed open never deletes anything.
	if l.straysRemoved, err = sweepStrays(dir, m); err != nil {
		l.closeFiles()
		return nil, err
	}
	return l, nil
}

// initFresh initializes an empty log directory: first the initial segment
// file, then the manifest naming it. A crash between the two leaves an
// empty stray segment and no manifest, which the next Open recognizes and
// redoes; non-empty segments without a manifest are refused loudly (that is
// data loss from outside interference, not a crash artifact).
func initFresh(dir string) (manifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return manifest{}, fmt.Errorf("seglog: open %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".log" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return manifest{}, fmt.Errorf("seglog: open %s: %w", dir, err)
		}
		if info.Size() > 0 {
			return manifest{}, fmt.Errorf("seglog: %s has segment %s but no manifest; refusing to initialize over existing data", dir, e.Name())
		}
	}
	first := segmentFileName(1)
	f, err := os.OpenFile(filepath.Join(dir, first), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return manifest{}, fmt.Errorf("seglog: init %s: %w", dir, err)
	}
	if err := f.Close(); err != nil {
		return manifest{}, fmt.Errorf("seglog: init %s: %w", dir, err)
	}
	fsio.SyncDir(dir)
	m := manifest{
		Segments:         []string{first},
		NextSegment:      2,
		MinNextSeq:       1,
		MinNextDatasetID: 1,
	}
	if err := writeManifest(dir, m); err != nil {
		return manifest{}, err
	}
	return m, nil
}

// recover replays every manifest-named segment into the in-memory index and
// reopens the active segment for appending, truncated past any dropped
// tail.
func (l *Log) recover() error {
	lastSeq := uint64(0)
	for i, name := range l.segments {
		path := filepath.Join(l.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("seglog: recover %s: manifest names segment %s: %w", l.dir, name, err)
		}
		isActive := i == len(l.segments)-1
		recs, scan, err := readSegment(name, data, isActive)
		if err != nil {
			return err
		}
		for _, ra := range recs {
			if ra.rec.Seq <= lastSeq {
				return &CorruptionError{Segment: name, Offset: ra.off,
					Reason: fmt.Sprintf("sequence regression: %d after %d (duplicated or reordered record)", ra.rec.Seq, lastSeq)}
			}
			lastSeq = ra.rec.Seq
			if err := l.apply(ra, name); err != nil {
				return err
			}
		}
		if isActive {
			if scan.TornTail {
				l.recovery = lake.RecoveryStats{
					TornTail:       true,
					DroppedRecords: scan.DroppedRecords,
					DroppedBytes:   scan.DroppedBytes,
					Offset:         scan.DroppedAt,
					File:           name,
				}
				// Make the drop physical before appending anything.
				if err := os.Truncate(path, scan.LiveEnd); err != nil {
					return fmt.Errorf("seglog: recover %s: truncating torn tail of %s: %w", l.dir, name, err)
				}
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("seglog: recover %s: reopening active segment: %w", l.dir, err)
			}
			l.active = f
			l.activeName = name
			l.activeSize = scan.LiveEnd
		} else {
			l.sealedSize[name] = int64(len(data))
		}
	}
	if lastSeq >= l.nextSeq {
		l.nextSeq = lastSeq + 1
	}
	return nil
}

// apply folds one recovered record's position into the in-memory index.
func (l *Log) apply(ra recordAt, segment string) error {
	rec := ra.rec
	loc := frameLoc{seq: rec.Seq, segment: segment, off: ra.off, size: ra.size}
	switch rec.Kind {
	case kindDataset:
		if _, dup := l.datasets[rec.ID]; dup {
			return &CorruptionError{Segment: segment, Offset: ra.off,
				Reason: fmt.Sprintf("dataset %d appended twice", rec.ID)}
		}
		l.addDataset(rec.ID, rec.Name, rec.Samples, loc)
		if rec.ID >= l.nextID {
			l.nextID = rec.ID + 1
		}
	case kindRemove:
		if _, ok := l.datasets[rec.ID]; !ok {
			return &CorruptionError{Segment: segment, Offset: ra.off,
				Reason: fmt.Sprintf("tombstone for unknown dataset %d", rec.ID)}
		}
		l.dropDataset(rec.ID, ra.size)
	case kindPlatform:
		l.setPlatform(loc)
	case kindDetection:
		l.setDetection(int(rec.ID), loc)
	default:
		return &CorruptionError{Segment: segment, Offset: ra.off,
			Reason: fmt.Sprintf("unknown record kind %d", rec.Kind)}
	}
	return nil
}

// addDataset indexes a live dataset frame. Callers hold the mutex.
func (l *Log) addDataset(id uint64, name string, samples int, loc frameLoc) {
	l.datasets[id] = datasetEntry{name: name, samples: samples, frameLoc: loc}
	l.order = append(l.order, id)
	l.liveBytes += loc.size
}

// dropDataset unindexes a removed dataset: its frame and the tombstone's
// tombBytes are both dead weight now. Callers hold the mutex.
func (l *Log) dropDataset(id uint64, tombBytes int64) {
	ent := l.datasets[id]
	delete(l.datasets, id)
	l.order = slices.DeleteFunc(l.order, func(v uint64) bool { return v == id })
	l.liveBytes -= ent.size
	l.deadBytes += ent.size + tombBytes
}

// setPlatform indexes a new platform snapshot frame; the one it supersedes
// is dead weight now. Callers hold the mutex.
func (l *Log) setPlatform(loc frameLoc) {
	if l.platform != nil {
		l.liveBytes -= l.platform.size
		l.deadBytes += l.platform.size
	}
	l.platform = &loc
	l.liveBytes += loc.size
}

// setDetection indexes a task's outcome frame; an earlier outcome of the
// same task is dead weight now. Callers hold the mutex.
func (l *Log) setDetection(taskID int, loc frameLoc) {
	if old, ok := l.detections[taskID]; ok {
		l.liveBytes -= old.size
		l.deadBytes += old.size
	}
	l.detections[taskID] = loc
	l.liveBytes += loc.size
}

// closeFiles releases the active segment handle (recovery-failure path).
func (l *Log) closeFiles() {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
}

// appendRecord seals an encoded frame with the next sequence number,
// rotates the active segment if it is full, writes and (by default) fsyncs.
// Callers encode the frame before taking the mutex and hold it here. On a
// write failure the segment is truncated back so a half-written frame never
// survives into the next append.
func (l *Log) appendRecord(frame []byte) (frameLoc, error) {
	if l.closed {
		return frameLoc{}, lake.ErrInventoryClosed
	}
	began := time.Now()
	seal(frame, l.nextSeq)
	if l.activeSize > 0 && l.activeSize+int64(len(frame)) > l.opts.SegmentTargetBytes {
		if err := l.rotate(); err != nil {
			return frameLoc{}, err
		}
	}
	loc := frameLoc{seq: l.nextSeq, segment: l.activeName, off: l.activeSize, size: int64(len(frame))}
	if _, err := l.active.Write(frame); err != nil {
		// Cut the possibly half-written frame off; if even that fails the
		// next open's lenient tail read drops it.
		l.active.Truncate(loc.off)
		return frameLoc{}, fmt.Errorf("seglog: append to %s: %w", l.activeName, err)
	}
	if !l.opts.NoSyncEachAppend {
		if err := l.active.Sync(); err != nil {
			return frameLoc{}, fmt.Errorf("seglog: append to %s: %w", l.activeName, err)
		}
	}
	l.activeSize += loc.size
	l.nextSeq++
	l.appends++
	l.obs.recordAppend(time.Since(began))
	return loc, nil
}

// readFrameBytes reads the raw frame at loc. Callers hold the mutex, which
// keeps loc current and its segment file in place.
func (l *Log) readFrameBytes(loc frameLoc) ([]byte, error) {
	f, err := os.Open(filepath.Join(l.dir, loc.segment))
	if err == nil {
		defer f.Close()
		frame := make([]byte, loc.size)
		if _, err = f.ReadAt(frame, loc.off); err == nil {
			return frame, nil
		}
	}
	return nil, loc.damage(err)
}

// damage reports err, met reading or checking the frame at loc by itself,
// as a *CorruptionError at the frame's position: reads are never lenient.
func (loc frameLoc) damage(err error) error {
	reason := err.Error()
	var ce *CorruptionError
	if errors.As(err, &ce) {
		reason = ce.Reason
	}
	return &CorruptionError{Segment: loc.segment, Offset: loc.off, Reason: reason}
}

// load looks up and reads a frame under the mutex, so compaction cannot
// move it midway, then decodes it outside the lock.
func (l *Log) load(locate func() (frameLoc, error), kind recordKind, decode func(recordHead, *decoder)) error {
	l.mu.Lock()
	loc, err := locate()
	var frame []byte
	if err == nil {
		frame, err = l.readFrameBytes(loc)
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return loc.decode(frame, kind, decode)
}

// decode checks frame, the image of the frame at loc, which must hold a
// kind record with loc's sequence number, and hands decode the decoder
// positioned after the record's head. Every field must be consumed: a
// malformed field or a trailing byte is a *CorruptionError at loc.
func (loc frameLoc) decode(frame []byte, kind recordKind, decode func(recordHead, *decoder)) error {
	h, d, _, err := readFrame(loc.segment, frame, 0)
	switch {
	case err != nil:
	case h.Seq != loc.seq:
		err = fmt.Errorf("frame holds seq %d, the index expects %d", h.Seq, loc.seq)
	case h.Kind != kind:
		err = fmt.Errorf("frame holds a kind %d record, the index expects kind %d", h.Kind, kind)
	default:
		decode(h, &d)
		err = d.finish()
	}
	if err != nil {
		return loc.damage(err)
	}
	return nil
}

// rotate seals the active segment and starts the next one: fsync + close
// the old file, create the new one, then commit it with a manifest update.
// A crash between file creation and manifest write leaves a stray the next
// open sweeps.
func (l *Log) rotate() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("seglog: rotate %s: %w", l.activeName, err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("seglog: rotate %s: %w", l.activeName, err)
	}
	l.sealedSize[l.activeName] = l.activeSize

	name := segmentFileName(l.nextSeg)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: rotate: create %s: %w", name, err)
	}
	fsio.SyncDir(l.dir)
	m := manifest{
		Segments:         append(append([]string(nil), l.segments...), name),
		NextSegment:      l.nextSeg + 1,
		MinNextSeq:       l.nextSeq,
		MinNextDatasetID: l.nextID,
	}
	if err := writeManifest(l.dir, m); err != nil {
		f.Close()
		os.Remove(filepath.Join(l.dir, name))
		return err
	}
	l.segments = m.Segments
	l.nextSeg = m.NextSegment
	l.active = f
	l.activeName = name
	l.activeSize = 0
	l.obs.setSegments(len(l.segments))
	return nil
}

// AppendDataset implements lake.Inventory.
func (l *Log) AppendDataset(name string, set dataset.Set) (uint64, error) {
	// No clone: the frame is the copy, encoded before the lock.
	frame := datasetFrame(name, set)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, lake.ErrInventoryClosed
	}
	id := l.nextID
	binary.LittleEndian.PutUint64(frame[idOff:], id)
	loc, err := l.appendRecord(frame)
	if err != nil {
		return 0, err
	}
	l.nextID = id + 1
	l.addDataset(id, name, len(set), loc)
	l.updateObsGauges()
	l.maybeCompact()
	return id, nil
}

// Datasets implements lake.Inventory.
func (l *Log) Datasets() ([]lake.DatasetMeta, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]lake.DatasetMeta, 0, len(l.order))
	for _, id := range l.order {
		ent := l.datasets[id]
		out = append(out, lake.DatasetMeta{ID: id, Name: ent.name, Size: ent.samples})
	}
	return out, nil
}

// LoadDataset implements lake.Inventory. A damaged frame is a
// *CorruptionError naming segment and offset.
func (l *Log) LoadDataset(id uint64) (dataset.Set, error) {
	var set dataset.Set
	err := l.load(func() (frameLoc, error) {
		ent, ok := l.datasets[id]
		if !ok {
			return frameLoc{}, fmt.Errorf("seglog: no dataset %d", id)
		}
		return ent.frameLoc, nil
	}, kindDataset, func(h recordHead, d *decoder) { set = d.samples(h.Samples) })
	if err != nil {
		return nil, err
	}
	return set, nil
}

// RemoveDataset implements lake.Inventory.
func (l *Log) RemoveDataset(id uint64) error {
	frame := removeFrame(id)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return lake.ErrInventoryClosed
	}
	if _, ok := l.datasets[id]; !ok {
		return fmt.Errorf("seglog: no dataset %d", id)
	}
	loc, err := l.appendRecord(frame)
	if err != nil {
		return err
	}
	l.dropDataset(id, loc.size)
	l.updateObsGauges()
	l.maybeCompact()
	return nil
}

// SavePlatform implements lake.Inventory.
func (l *Log) SavePlatform(snapshot []byte) error {
	frame := platformFrame(snapshot)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return lake.ErrInventoryClosed
	}
	loc, err := l.appendRecord(frame)
	if err != nil {
		return err
	}
	l.setPlatform(loc)
	l.updateObsGauges()
	l.maybeCompact()
	return nil
}

// LoadPlatform implements lake.Inventory, failing as LoadDataset does.
func (l *Log) LoadPlatform() ([]byte, error) {
	var snapshot []byte
	err := l.load(func() (frameLoc, error) {
		if l.platform == nil {
			return frameLoc{}, lake.ErrNoSnapshot
		}
		return *l.platform, nil
	}, kindPlatform, func(_ recordHead, d *decoder) { snapshot = d.blob() })
	if err != nil {
		return nil, err
	}
	return snapshot, nil
}

// AppendDetection durably records the outcome of detection task taskID:
// the sample IDs judged noisy and clean, and a free-form note (who decided,
// how). A later outcome for the same task supersedes the earlier one. From
// its return on, DoneTasks includes taskID, also after a reopen (unless
// Options.NoSyncEachAppend left the frame unsynced at a crash).
func (l *Log) AppendDetection(taskID int, noisy, clean []int, note string) error {
	frame := detectionFrame(taskID, noisy, clean, note)
	l.mu.Lock()
	defer l.mu.Unlock()
	loc, err := l.appendRecord(frame)
	if err != nil {
		return err
	}
	l.setDetection(taskID, loc)
	l.updateObsGauges()
	l.maybeCompact()
	return nil
}

// DoneTasks returns the IDs of the tasks with a recorded outcome: the tasks
// a restarted run may skip because their result is already durable.
func (l *Log) DoneTasks() map[int]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	done := make(map[int]bool, len(l.detections))
	for id := range l.detections {
		done[id] = true
	}
	return done
}

// Stats implements lake.Inventory.
func (l *Log) Stats() lake.InventoryStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := lake.InventoryStats{
		Backend:     "seglog",
		Datasets:    len(l.order),
		HasPlatform: l.platform != nil,
		Segments:    len(l.segments),
		LiveBytes:   l.liveBytes,
		DeadBytes:   l.deadBytes,
		Appends:     l.appends,
		Compactions: l.compactions,
		Recovery:    l.recovery,
	}
	for _, ent := range l.datasets {
		st.Samples += ent.samples
	}
	return st
}

// StraysRemoved reports how many crash artifacts (stray segments, manifest
// temporaries) the opening sweep removed.
func (l *Log) StraysRemoved() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.straysRemoved
}

// Close waits for any in-flight compaction, fsyncs and closes the active
// segment. Mutations after Close return lake.ErrInventoryClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	// Wait with the lock released: the compaction goroutine needs it.
	l.compactWG.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	if err != nil {
		return fmt.Errorf("seglog: close %s: %w", l.dir, err)
	}
	return nil
}

// SetCompactionHook installs fn to be called at each named compaction
// stage ("segments-written", "manifest-swapped", "old-segments-deleted"),
// each reached with the stage's files fsync'd — the seam crash-recovery
// tests use to capture mid-compaction disk states. Nil removes the hook.
// The hook runs with the log mutex held; it must not call back into the
// log.
func (l *Log) SetCompactionHook(fn func(stage string)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactHook = fn
}
