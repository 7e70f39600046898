package seglog

import (
	"testing"

	"enld/internal/dataset"
)

// benchAppend measures one durable dataset append (8 samples per record).
func benchAppend(b *testing.B, opts Options) {
	l, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	set := testSet(0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendDataset("bench", set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeglogAppend is the storage hot path the CI gate tracks: the
// nosync variant measures framing + write + recording the frame's position
// (the code the log adds over the filesystem); the fsync variant adds the
// per-append durability barrier and is dominated by the disk, so it stays
// ungated.
func BenchmarkSeglogAppend(b *testing.B) {
	b.Run("nosync", func(b *testing.B) {
		benchAppend(b, Options{NoSyncEachAppend: true, AutoCompactRatio: -1})
	})
	b.Run("fsync", func(b *testing.B) {
		benchAppend(b, Options{AutoCompactRatio: -1})
	})
}

// BenchmarkSeglogRecovery10k measures a full open — manifest read, segment
// replay, index rebuild — of a 10k-dataset history, the recovery-time
// budget the CI gate tracks.
func BenchmarkSeglogRecovery10k(b *testing.B) {
	dir := b.TempDir()
	ids := buildTortureLog(b, dir, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, Options{SegmentTargetBytes: 64 << 10})
		if err != nil {
			b.Fatal(err)
		}
		if got := l.Stats().Datasets; got != len(ids) {
			b.Fatalf("recovered %d datasets, want %d", got, len(ids))
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeglogLoad measures one LoadDataset over the 10k-dataset
// history: a positioned read of the dataset's frame, its checksum and its
// decode.
func BenchmarkSeglogLoad(b *testing.B) {
	dir := b.TempDir()
	ids := buildTortureLog(b, dir, 10000)
	l, err := Open(dir, Options{SegmentTargetBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := l.LoadDataset(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		loadSink = set
	}
}

// loadSink keeps BenchmarkSeglogLoad's result alive.
var loadSink dataset.Set

// BenchmarkSeglogCompact10k measures compacting the 10k-dataset history
// with half its records dead. Informational (not gated): compaction is a
// background amortized cost.
func BenchmarkSeglogCompact10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		ids := buildTortureLog(b, dir, 10000)
		l, err := Open(dir, Options{SegmentTargetBytes: 64 << 10, NoSyncEachAppend: true, AutoCompactRatio: -1})
		if err != nil {
			b.Fatal(err)
		}
		for j, id := range ids {
			if j%2 == 0 {
				if err := l.RemoveDataset(id); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		if err := l.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		l.Close()
		b.StartTimer()
	}
}
