package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: enld
BenchmarkTrainEpoch/workers=1-8         	       1	200000000 ns/op
BenchmarkForwardBatch/persample-8       	       1	100000000 ns/op
BenchmarkDetect/enld-8                  	       1	400000000 ns/op
BenchmarkDetect/enld-workers=1-8        	       1	300000000 ns/op
BenchmarkForwardBatch/batched-8         	       1	 25000000 ns/op
BenchmarkForward/single-8               	 1000000	      1234 ns/op
BenchmarkKNN/into/n=1024-8              	  500000	      2500 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	enld	12.345s
`

// singleCoreOutput is GOMAXPROCS=1 output: go omits the -N suffix, so the
// trailing digits of cl-1/cl-2 are method names and must survive parsing.
const singleCoreOutput = `BenchmarkDetect/cl-1 	       1	300000000 ns/op
BenchmarkDetect/cl-2 	       1	310000000 ns/op
BenchmarkTrainEpoch/workers=1 	       1	200000000 ns/op
`

func TestParse(t *testing.T) {
	entries, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("%d entries: %+v", len(entries), entries)
	}
	if entries[0].Name != "BenchmarkTrainEpoch/workers=1" || entries[0].NsPerOp != 2e8 {
		t.Fatalf("first entry %+v", entries[0])
	}
	if entries[0].BytesPerOp != nil || entries[0].AllocsPerOp != nil {
		t.Fatalf("memory statistics invented for %+v", entries[0])
	}
	// The -GOMAXPROCS suffix is stripped; a reported 0 B/op is a measurement,
	// not an absence.
	last := entries[6]
	if last.Name != "BenchmarkKNN/into/n=1024" || last.NsPerOp != 2500 {
		t.Fatalf("last entry %+v", last)
	}
	if last.BytesPerOp == nil || *last.BytesPerOp != 0 || last.AllocsPerOp == nil || *last.AllocsPerOp != 0 {
		t.Fatalf("last entry memory statistics %v %v", last.BytesPerOp, last.AllocsPerOp)
	}
}

// TestParseMemoryColumns covers the column layouts go test emits: memory
// statistics directly after ns/op, and after custom metrics.
func TestParseMemoryColumns(t *testing.T) {
	entries, err := parse(strings.NewReader(
		"BenchmarkDetect/enld-workers=1 \t 20\t 52000000 ns/op\t 1936512 B/op\t 1200 allocs/op\n" +
			"BenchmarkKNN/into/n=1024 \t 1000\t 3100 ns/op\t 0.9900 recall@k\t 48 B/op\t 2 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	if *entries[0].BytesPerOp != 1936512 || *entries[0].AllocsPerOp != 1200 {
		t.Fatalf("first entry %v B/op %v allocs/op", *entries[0].BytesPerOp, *entries[0].AllocsPerOp)
	}
	if entries[1].NsPerOp != 3100 || *entries[1].BytesPerOp != 48 || *entries[1].AllocsPerOp != 2 {
		t.Fatalf("second entry %+v", entries[1])
	}
}

// TestGateBytes pins the allocation gate: hard failure above +10% B/op on a
// hot path only, silent when either side lacks the measurement, and a
// baseline of 0 B/op tolerates nothing.
func TestGateBytes(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	baseline := Summary{Benchmarks: []Entry{
		{Name: "BenchmarkDetect/enld-workers=1", NsPerOp: 100, BytesPerOp: f(1000)},
		{Name: "BenchmarkForwardBatch/batched", NsPerOp: 100, BytesPerOp: f(0)},
		{Name: "BenchmarkTrainEpoch/workers=1", NsPerOp: 100},
		{Name: "BenchmarkFig8", NsPerOp: 100, BytesPerOp: f(1000)},
	}}
	fresh := func(enld, batched float64) []Entry {
		return []Entry{
			{Name: "BenchmarkDetect/enld-workers=1", NsPerOp: 100, BytesPerOp: f(enld)},
			{Name: "BenchmarkForwardBatch/batched", NsPerOp: 100, BytesPerOp: f(batched)},
			{Name: "BenchmarkTrainEpoch/workers=1", NsPerOp: 100, BytesPerOp: f(5000)}, // baseline has none
			{Name: "BenchmarkFig8", NsPerOp: 100, BytesPerOp: f(9000)},                 // not a hot path
		}
	}
	var buf strings.Builder
	cmp := compare(fresh(1100, 0), baseline)
	if cmp[0].BaselineBytes == nil || *cmp[0].CurrentBytes != 1100 || cmp[2].CurrentBytes != nil {
		t.Fatalf("bytes not carried into comparisons: %+v", cmp)
	}
	if gate(&buf, cmp) || buf.Len() != 0 {
		t.Fatalf("gate failed or annotated at exactly +10%%: %q", buf.String())
	}
	if !gate(&buf, compare(fresh(1101, 0), baseline)) || !strings.Contains(buf.String(), "B/op") {
		t.Fatalf("gate passed above +10%% B/op: %q", buf.String())
	}
	buf.Reset()
	if !gate(&buf, compare(fresh(1000, 16), baseline)) {
		t.Fatal("gate passed a hot path that started allocating")
	}
}

func TestParseSingleCoreKeepsNames(t *testing.T) {
	entries, err := parse(strings.NewReader(singleCoreOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkDetect/cl-1", "BenchmarkDetect/cl-2", "BenchmarkTrainEpoch/workers=1"}
	if len(entries) != len(want) {
		t.Fatalf("%d entries", len(entries))
	}
	for i, name := range want {
		if entries[i].Name != name {
			t.Errorf("entry %d named %q, want %q", i, entries[i].Name, name)
		}
	}
}

func TestSummarizeSpeedups(t *testing.T) {
	entries, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(entries)
	if s.GoMaxProcs < 1 || s.GoVersion == "" {
		t.Fatalf("environment not recorded: %+v", s)
	}
	if len(s.Speedups) != 1 || s.Speedups[0].Name != "gemm-batching" || s.Speedups[0].Speedup != 4.0 {
		t.Fatalf("speedups %+v, want gemm-batching 4x", s.Speedups)
	}
	// Without the batched row the pair must be absent rather than zero or
	// NaN.
	if s := summarize(entries[:2]); len(s.Speedups) != 0 {
		t.Errorf("speedup computed from missing data: %+v", s.Speedups)
	}
}

func TestCompareAgainstBaseline(t *testing.T) {
	baseline := Summary{Benchmarks: []Entry{
		{Name: "BenchmarkDetect/enld-workers=1", NsPerOp: 100},
		{Name: "BenchmarkForward/single", NsPerOp: 50},
	}}
	fresh := []Entry{
		{Name: "BenchmarkDetect/enld-workers=1", NsPerOp: 120},
		{Name: "BenchmarkForward/single", NsPerOp: 50},
		{Name: "BenchmarkGemm/nn/n=64", NsPerOp: 10}, // new: no baseline
	}
	cmp := compare(fresh, baseline)
	if len(cmp) != 2 {
		t.Fatalf("%d comparisons: %+v", len(cmp), cmp)
	}
	if cmp[0].Ratio != 1.2 || !cmp[0].HotPath {
		t.Fatalf("enld comparison %+v", cmp[0])
	}
	if cmp[1].Ratio != 1.0 || cmp[1].HotPath {
		t.Fatalf("forward comparison %+v", cmp[1])
	}
}

func TestGateThresholds(t *testing.T) {
	var buf strings.Builder
	// 20% hot-path regression: warn-only annotation, gate passes.
	if gate(&buf, []Comparison{{Name: "BenchmarkDetect/enld-workers=1", BaselineNs: 100, CurrentNs: 120, Ratio: 1.2, HotPath: true}}) {
		t.Fatal("gate failed below the hard threshold")
	}
	if !strings.Contains(buf.String(), "::warning::") {
		t.Fatalf("no warning annotation: %q", buf.String())
	}
	// 30% hot-path regression: hard failure with an error annotation.
	buf.Reset()
	if !gate(&buf, []Comparison{{Name: "BenchmarkDetect/enld-workers=1", BaselineNs: 100, CurrentNs: 130, Ratio: 1.3, HotPath: true}}) {
		t.Fatal("gate passed above the hard threshold")
	}
	if !strings.Contains(buf.String(), "::error::") {
		t.Fatalf("no error annotation: %q", buf.String())
	}
	// 30% regression on a non-hot-path benchmark: warning only.
	buf.Reset()
	if gate(&buf, []Comparison{{Name: "BenchmarkFig8", BaselineNs: 100, CurrentNs: 130, Ratio: 1.3}}) {
		t.Fatal("gate failed on a non-hot-path benchmark")
	}
	if !strings.Contains(buf.String(), "::warning::") {
		t.Fatalf("no warning annotation: %q", buf.String())
	}
	// Within noise: silent.
	buf.Reset()
	if gate(&buf, []Comparison{{Name: "BenchmarkForward/single", BaselineNs: 100, CurrentNs: 105, Ratio: 1.05}}) || buf.Len() != 0 {
		t.Fatalf("unexpected output for in-noise comparison: %q", buf.String())
	}
}

// TestGateMissingHotPath fails the gate, with one error per name, when a
// hot-path benchmark has no fresh row: compare would skip it silently.
func TestGateMissingHotPath(t *testing.T) {
	var all []Entry
	for name := range hotPaths {
		all = append(all, Entry{Name: name, NsPerOp: 100})
	}
	var buf strings.Builder
	if gateMissing(&buf, all) || buf.Len() != 0 {
		t.Fatalf("gate failed or annotated with every hot path present: %q", buf.String())
	}
	var fresh []Entry
	for _, e := range all {
		if e.Name != "BenchmarkDetect/enld-workers=1" && e.Name != "BenchmarkGemm/tail/4x26x64" {
			fresh = append(fresh, e)
		}
	}
	if !gateMissing(&buf, fresh) {
		t.Fatal("gate passed with two hot paths missing")
	}
	want := "::error::hot-path benchmark BenchmarkDetect/enld-workers=1 has no fresh row, so its regression gate cannot run\n" +
		"::error::hot-path benchmark BenchmarkGemm/tail/4x26x64 has no fresh row, so its regression gate cannot run\n"
	if buf.String() != want {
		t.Fatalf("annotations:\n%s\nwant:\n%s", buf.String(), want)
	}
}

const watchdogOutput = `BenchmarkTrainEpoch/workers=1-8 	       1	200000000 ns/op
BenchmarkForward/single-8       	       1	     1234 ns/op
BenchmarkTrainEpoch/watchdog-8  	       1	208000000 ns/op
`

func TestSummarizeOverheads(t *testing.T) {
	entries, err := parse(strings.NewReader(watchdogOutput))
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(entries)
	if len(s.Overheads) != 1 {
		t.Fatalf("%d overheads: %+v", len(s.Overheads), s.Overheads)
	}
	o := s.Overheads[0]
	if o.Name != "watchdog-overhead" || o.Ratio != 1.04 || o.Limit != 1.10 || o.HardLimit != 1.25 {
		t.Fatalf("overhead %+v", o)
	}

	// Without the watchdog variant the overhead must be absent, not zero.
	s = summarize(entries[:2])
	if len(s.Overheads) != 0 {
		t.Fatalf("overhead computed from missing data: %+v", s.Overheads)
	}
}

func TestGateOverheads(t *testing.T) {
	var buf strings.Builder
	// Within budget: silent pass.
	in := []Overhead{{Name: "watchdog-overhead", Base: "b", Variant: "v", Ratio: 1.04, Limit: 1.10, HardLimit: 1.25}}
	if gateOverheads(&buf, in) || buf.Len() != 0 {
		t.Fatalf("in-budget overhead failed or annotated: %q", buf.String())
	}
	// Over budget but within the hard limit: warning, gate passes.
	in[0].Ratio = 1.2
	if gateOverheads(&buf, in) {
		t.Fatal("gate failed below the hard limit")
	}
	if !strings.Contains(buf.String(), "::warning::") {
		t.Fatalf("no warning annotation: %q", buf.String())
	}
	// Over the hard limit: failure with an error annotation.
	buf.Reset()
	in[0].Ratio = 1.3
	if !gateOverheads(&buf, in) {
		t.Fatal("over-hard-limit overhead passed")
	}
	if !strings.Contains(buf.String(), "::error::") {
		t.Fatalf("no error annotation: %q", buf.String())
	}
}
