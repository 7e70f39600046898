package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/lake"
	"enld/internal/workload"
)

func TestSelfTimesSumToRoot(t *testing.T) {
	cases := map[string]struct {
		spans []span
		want  map[string]int64
	}{
		"leaf only": {
			spans: []span{{Name: spanTask, Start: 10, End: 110}},
			want:  map[string]int64{spanTask: 100},
		},
		"nested": {
			// task ⊃ detect ⊃ two selects.
			spans: []span{
				{Name: spanTask, Start: 0, End: 100},
				{Name: spanSend, Parent: spanTask, Start: 0, End: 5},
				{Name: spanDetect, Parent: spanTask, Start: 20, End: 90},
				{Name: spanSelect, Parent: spanDetect, Start: 30, End: 40},
				{Name: spanSelect, Parent: spanDetect, Start: 60, End: 65},
			},
			want: map[string]int64{spanTask: 25, spanSend: 5, spanDetect: 55, spanSelect: 15},
		},
		"overlapping children": {
			// queue is placed from Report.Queued and may run into detect:
			// the overlap counts once, for the earlier span.
			spans: []span{
				{Name: spanTask, Start: 0, End: 100},
				{Name: spanQueue, Parent: spanTask, Start: 10, End: 50},
				{Name: spanDetect, Parent: spanTask, Start: 40, End: 90},
			},
			want: map[string]int64{spanTask: 20, spanQueue: 40, spanDetect: 40},
		},
		"child beyond its parent is clipped": {
			spans: []span{
				{Name: spanTask, Start: 0, End: 100},
				{Name: spanHop, Parent: spanTask, Start: 10, End: 80},
				{Name: spanDetect, Parent: spanHop, Start: 50, End: 120},
				{Name: spanAppend, Parent: spanHop, Start: 5, End: 15},
			},
			want: map[string]int64{spanTask: 30, spanHop: 35, spanAppend: 5, spanDetect: 30},
		},
		"orphan ignored": {
			spans: []span{
				{Name: spanTask, Start: 0, End: 10},
				{Name: spanSelect, Parent: spanDetect, Start: 2, End: 4},
			},
			want: map[string]int64{spanTask: 10},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			got := selfTimes(tc.spans)
			total := int64(0)
			for span, want := range tc.want {
				if got[span] != want {
					t.Errorf("self[%s] = %d, want %d", span, got[span], want)
				}
			}
			for _, v := range got {
				total += v
			}
			if root := tc.spans[0].End - tc.spans[0].Start; total != root {
				t.Errorf("self times sum to %d, root lasts %d", total, root)
			}
		})
	}
	if selfTimes([]span{{Name: spanDetect, Parent: spanTask, Start: 0, End: 1}}) != nil {
		t.Error("a task without a root span has no self times")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0.5, false}, {40, 0.75, true}, {99, 0.75, true}, {100, 0.90, true},
		{199, 0.90, true}, {200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if supported(199, 0.95) || !supported(200, 0.95) {
		t.Error("p95 needs exactly 200 samples")
	}
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median of 1..4 = %v", q)
	}
	if q := quantile(nil, 0.9); q != 0 {
		t.Errorf("quantile of nothing = %v", q)
	}
}

// pinnedTraceHash is the seed-1 trace of each serving workload at the run
// length its file is written for. A change here changes what every recorded
// number was measured on.
var pinnedTraceHash = map[string]uint64{
	"lake-steady":    0x5849782239c321b4,
	"cluster-steady": 0x5849782239c321b4,
	"lake-overload":  0xb68d60df37bbbfd0,
	"ingest-heavy":   0x6c3c33d5c0ee80be,
}

func TestWorkloadFilesAndPinnedTraces(t *testing.T) {
	hashes := make(map[string]uint64)
	for _, name := range workloadNames {
		wl, err := loadWorkload(name) // runs workload.Spec.Validate on the serving specs
		if err != nil {
			t.Fatal(err)
		}
		if wl.Name != name {
			t.Errorf("%s.json names itself %q", name, wl.Name)
		}
		if wl.Kind == kindDetectBatch {
			continue
		}
		seconds := wl.Phases[0].DurationSeconds
		tr := genTrace(wl, 1, seconds)
		h, err := tr.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[name] = h
		if want := pinnedTraceHash[name]; h != want {
			t.Errorf("%s: seed-1 trace hash %#016x, pinned %#016x", name, h, want)
		}
		again := genTrace(wl, 1, seconds)
		if h2, _ := again.Hash(); h2 != h {
			t.Errorf("%s: the same seed gave two traces", name)
		}
		other := genTrace(wl, 2, seconds)
		if h2, _ := other.Hash(); h2 == h {
			t.Errorf("%s: seeds 1 and 2 gave the same trace", name)
		}
		if got, want := len(tr.Events), wl.tasks(seconds); got != want {
			t.Errorf("%s: %d events, want %d", name, got, want)
		}
		if last := tr.Events[len(tr.Events)-1].At; last > tr.Duration {
			t.Errorf("%s: last arrival %v is past the run's %v", name, last, tr.Duration)
		}
	}
	if hashes["cluster-steady"] != hashes["lake-steady"] {
		t.Error("cluster-steady must replay the byte-identical trace of lake-steady")
	}
	if _, err := loadWorkload("no-such"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestZipfMultisetIsExact(t *testing.T) {
	picks := zipfMultiset(24, 1.0, 144)
	if len(picks) != 144 {
		t.Fatalf("%d picks, want 144", len(picks))
	}
	counts := make([]int, 24)
	for _, j := range picks {
		counts[j]++
	}
	for j := 1; j < len(counts); j++ {
		if counts[j] > counts[j-1] {
			t.Errorf("entry %d picked %d times, hotter entry %d only %d", j, counts[j], j-1, counts[j-1])
		}
	}
	if counts[0] < 37 || counts[0] > 39 { // 144 / H(24) = 38.1
		t.Errorf("hottest entry picked %d times, want about 38", counts[0])
	}
}

// TestReduceChecksOutputs feeds reduce hand-made reports: every class once,
// one broken partition and one noisy set that differs between submissions.
func TestReduceChecksOutputs(t *testing.T) {
	set := dataset.Set{{ID: 1, Observed: 0, True: 0}, {ID: 2, Observed: 1, True: 0}}
	p := &platform{catalog: []dataset.Set{set}}
	wl := &Workload{LimitSeconds: 1}
	now := time.Now()
	good := func() *detect.Result {
		return &detect.Result{Noisy: map[int]bool{2: true}, Clean: map[int]bool{1: true}}
	}
	tasks := make([]taskRecord, 8)
	for i := range tasks {
		p.events = append(p.events, workload.Event{Task: i})
		tasks[i] = taskRecord{due: now, sent: now, accepted: now, filed: now.Add(100 * time.Millisecond)}
	}
	tasks[1].filed = now.Add(2 * time.Second) // completed, but past the limit
	reports := []lake.Report{
		{TaskID: 0, Result: good()},
		{TaskID: 1, Result: good()},
		{TaskID: 2, Shed: true, Err: errors.New("shed")},
		{TaskID: 3, DeadLettered: true, Err: errors.New("dead")},
		{TaskID: 4, Abandoned: true, Err: errors.New("abandoned")},
		{TaskID: 5, Result: &detect.Result{Noisy: map[int]bool{2: true}, Clean: map[int]bool{}}},        // sample 1 in neither
		{TaskID: 6, Result: &detect.Result{Noisy: map[int]bool{1: true}, Clean: map[int]bool{2: true}}}, // differs from task 0
		// task 7 never reported
	}
	o := reduce(wl, p, tasks, reports, time.Second)
	if o.ok != 2 || o.shed != 1 || o.deadLetter != 1 || o.abandoned != 1 || o.missing != 3 {
		t.Errorf("classes ok=%d shed=%d dead=%d abandoned=%d missing=%d", o.ok, o.shed, o.deadLetter, o.abandoned, o.missing)
	}
	if o.failed() != 5 || o.within != 1 || len(o.latency) != 2 {
		t.Errorf("failed=%d within=%d latencies=%d", o.failed(), o.within, len(o.latency))
	}
	if len(o.violations) < 5 { // partition, differing set, never reported, failed tasks, shed where none may be
		t.Errorf("violations: %q", o.violations)
	}
	if o.completed()+o.shed+o.failed() != o.offered {
		t.Error("classes do not partition the offered tasks")
	}
}

// TestSmoke runs every workload at a fiftieth of its length, untraced and
// traced, so that API drift which would break the benchmark fails tier-1 and
// not a later measurement.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			mode := "untraced"
			defs := endToEnd
			if traced {
				mode, defs = "traced", perLayer
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				res, err := runWorkload(options{
					workload: name, seed: 1, seconds: 0.4, traced: traced, outDir: dir, setups: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, violations %q", res.Attempted, res.Failed, res.Violations)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, the list has %d", len(res.Metrics), len(defs))
				}
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
					t.Fatal(err)
				}
				for _, d := range defs {
					if v, ok := line.Metrics[d.Name]; !ok || v.Value == nil || v.Unit != d.Unit {
						t.Errorf("result line lacks %s in %s", d.Name, d.Unit)
					}
				}
				if !traced {
					for _, d := range defs {
						// within_limit_frac may be 0 when the test binary
						// is slow enough (-race) to miss every limit.
						if res.Metrics[d.Name].Value == 0 && d.Name != "within_limit_frac" {
							t.Errorf("end-to-end metric %s is 0", d.Name)
						}
					}
					return
				}
				if res.Metrics["trace.spans"].Value == 0 || res.Metrics["core.detect_calls"].Value == 0 {
					t.Error("the traced run recorded no spans or no Detect call")
				}
				if _, err := os.Stat(filepath.Join(dir, name+".trace.jsonl")); err != nil {
					t.Error("no trace file:", err)
				}
			})
		}
	}
}

// TestLadderComesFromTheProgram guards the one place the harness depends on
// the ladder's size: the per-layer list has room for maxTiers rungs.
func TestLadderComesFromTheProgram(t *testing.T) {
	wb, err := experiments.BuildWorkbench("emnist", 0.2, experiments.Config{Seed: 7, DataScale: 0.1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(experiments.BrownoutLadder(wb)); n < 1 || n > maxTiers {
		t.Errorf("ladder has %d rungs, the metric list holds 1 to %d", n, maxTiers)
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// metric lists in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed, the harness has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		wl, err := loadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != workloadNames[i] || w.Why != wl.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the file has %q / %q", i, w.Name, w.Why, workloadNames[i], wl.Why)
		}
		if got := wl.Phases[0].DurationSeconds; got != float64(doc.RunSeconds) {
			t.Errorf("%s is written for %v s, run_seconds is %d", w.Name, got, doc.RunSeconds)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, the harness has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
