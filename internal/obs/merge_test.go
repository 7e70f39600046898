package obs

import (
	"bytes"
	"strings"
	"testing"
)

func shardRegistry(t *testing.T, tasks uint64, depth float64, lat ...float64) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("tasks_total", "t", Label{Key: "outcome", Value: "ok"}).Add(tasks)
	reg.Gauge("queue_depth", "g").Set(depth)
	h := reg.Histogram("task_seconds", "h", []float64{0.1, 1})
	for _, v := range lat {
		h.Observe(v)
	}
	return reg
}

func TestMergeExpositions(t *testing.T) {
	a := shardRegistry(t, 3, 2, 0.05, 0.5).Snapshot()
	b := shardRegistry(t, 4, 7, 5).Snapshot()

	coord := NewRegistry()
	coord.Gauge("cluster_shards", "g").Set(2)

	merged, err := MergeExpositions([]ShardExposition{
		{Shard: "s1", Parsed: b},
		{Shard: "s0", Parsed: a},
		{Shard: "", Parsed: coord.Snapshot()},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Counters sum across shards.
	if v, ok := merged.Counter("tasks_total", map[string]string{"outcome": "ok"}); !ok || v != 7 {
		t.Fatalf("merged counter = %v, %v; want 7, true", v, ok)
	}
	// Gauges survive per shard, labelled.
	if v, ok := merged.Gauge("queue_depth", map[string]string{"shard": "s0"}); !ok || v != 2 {
		t.Fatalf("shard s0 gauge = %v, %v; want 2, true", v, ok)
	}
	if v, ok := merged.Gauge("queue_depth", map[string]string{"shard": "s1"}); !ok || v != 7 {
		t.Fatalf("shard s1 gauge = %v, %v; want 7, true", v, ok)
	}
	// Pass-through part keeps its gauges unlabelled.
	if v, ok := merged.Gauge("cluster_shards", nil); !ok || v != 2 {
		t.Fatalf("pass-through gauge = %v, %v; want 2, true", v, ok)
	}
	// Histograms sum bucket-by-bucket; +Inf still equals count.
	h, ok := merged.Histogram("task_seconds", nil)
	if !ok {
		t.Fatal("merged histogram missing")
	}
	if h.Count != 3 || h.Buckets[len(h.Buckets)-1].Count != 3 {
		t.Fatalf("merged histogram count = %d, +Inf = %d; want 3, 3",
			h.Count, h.Buckets[len(h.Buckets)-1].Count)
	}
	if want := 0.05 + 0.5 + 5; h.Sum != want {
		t.Fatalf("merged histogram sum = %v; want %v", h.Sum, want)
	}
	if got := h.Buckets[0].Count; got != 1 {
		t.Fatalf("merged le=0.1 bucket = %d; want 1", got)
	}
}

// TestMergeDeterministic pins that shard scrape order does not change the
// merged result — parts are re-sorted by shard name before any float sums.
func TestMergeDeterministic(t *testing.T) {
	a := shardRegistry(t, 3, 2, 0.1, 0.3, 0.7).Snapshot()
	b := shardRegistry(t, 4, 7, 0.2, 0.9).Snapshot()
	render := func(parts []ShardExposition) string {
		merged, err := MergeExpositions(parts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteParsed(&buf, merged); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fwd := render([]ShardExposition{{Shard: "s0", Parsed: a}, {Shard: "s1", Parsed: b}})
	rev := render([]ShardExposition{{Shard: "s1", Parsed: b}, {Shard: "s0", Parsed: a}})
	if fwd != rev {
		t.Fatalf("merge depends on part order:\n%s\nvs\n%s", fwd, rev)
	}
}

// TestWriteParsedRoundTrip pins the acceptance requirement: the merged
// cluster exposition passes the same strict conformance parsers the
// per-shard endpoints do — HELP (non-empty) before TYPE for every family —
// prints a large counter as an integer, and parses back to the same values.
func TestWriteParsedRoundTrip(t *testing.T) {
	a := shardRegistry(t, 1234000, 2, 0.05, 0.5).Snapshot()
	b := shardRegistry(t, 567, 7, 5).Snapshot()
	merged, err := MergeExpositions([]ShardExposition{
		{Shard: "s0", Parsed: a}, {Shard: "s1", Parsed: b},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteParsed(&buf, merged); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	families := parsePrometheus(t, text)
	for _, name := range []string{"tasks_total", "queue_depth", "task_seconds"} {
		if f := families[name]; f == nil || f.help == "" {
			t.Fatalf("family %s lacks its HELP line:\n%s", name, text)
		}
	}
	checkHistogram(t, families["task_seconds"])
	if want := `tasks_total{outcome="ok"} 1234567` + "\n"; !strings.Contains(text, want) {
		t.Fatalf("merged counter not rendered as %q:\n%s", want, text)
	}
	again, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged exposition failed conformance parse: %v\n%s", err, text)
	}
	if v, ok := again.Counter("tasks_total", map[string]string{"outcome": "ok"}); !ok || v != 1234567 {
		t.Fatalf("round-trip counter = %v, %v; want 1234567, true", v, ok)
	}
	h, ok := again.Histogram("task_seconds", nil)
	if !ok || h.Count != 3 {
		t.Fatalf("round-trip histogram count = %v", h)
	}
	if v, ok := again.Gauge("queue_depth", map[string]string{"shard": "s1"}); !ok || v != 7 {
		t.Fatalf("round-trip gauge = %v, %v; want 7, true", v, ok)
	}
}

func TestMergeErrors(t *testing.T) {
	counterReg := NewRegistry()
	counterReg.Counter("m", "c").Add(1)
	gaugeReg := NewRegistry()
	gaugeReg.Gauge("m", "g").Set(1)
	if _, err := MergeExpositions([]ShardExposition{
		{Shard: "a", Parsed: counterReg.Snapshot()},
		{Shard: "b", Parsed: gaugeReg.Snapshot()},
	}); err == nil || !strings.Contains(err.Error(), "family m") {
		t.Fatalf("type conflict not rejected: %v", err)
	}

	h1 := NewRegistry()
	h1.Histogram("h", "h", []float64{0.1, 1}).Observe(0.5)
	h2 := NewRegistry()
	h2.Histogram("h", "h", []float64{0.2, 2}).Observe(0.5)
	if _, err := MergeExpositions([]ShardExposition{
		{Shard: "a", Parsed: h1.Snapshot()},
		{Shard: "b", Parsed: h2.Snapshot()},
	}); err == nil || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("bucket layout mismatch not rejected: %v", err)
	}

	g1 := NewRegistry()
	g1.Gauge("g", "g").Set(1)
	g2 := NewRegistry()
	g2.Gauge("g", "g").Set(2)
	if _, err := MergeExpositions([]ShardExposition{
		{Shard: "", Parsed: g1.Snapshot()},
		{Shard: "", Parsed: g2.Snapshot()},
	}); err == nil || !strings.Contains(err.Error(), "duplicate gauge") {
		t.Fatalf("gauge collision not rejected: %v", err)
	}
}
