package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestParseTextRoundTrip renders a populated registry and re-reads it: every
// family, label set, counter value, bucket layout and histogram sum/count
// must survive the trip.
func TestParseTextRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_tasks_total", "Tasks.", Label{Key: "outcome", Value: "ok"}).Add(7)
	reg.Counter("demo_tasks_total", "Tasks.", Label{Key: "outcome", Value: "dead_letter"}).Add(2)
	reg.Gauge("demo_depth", "Depth.").Set(3.5)
	h := reg.Histogram("demo_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if v, ok := p.Counter("demo_tasks_total", map[string]string{"outcome": "ok"}); !ok || v != 7 {
		t.Errorf("counter ok = %v, %v; want 7, true", v, ok)
	}
	if v, ok := p.Counter("demo_tasks_total", map[string]string{"outcome": "dead_letter"}); !ok || v != 2 {
		t.Errorf("counter dead_letter = %v, %v; want 2, true", v, ok)
	}
	if v, ok := p.Gauge("demo_depth", nil); !ok || v != 3.5 {
		t.Errorf("gauge = %v, %v; want 3.5, true", v, ok)
	}
	s, ok := p.Histogram("demo_seconds", nil)
	if !ok {
		t.Fatal("histogram demo_seconds missing")
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if want := 0.05 + 0.5 + 0.5 + 5 + 50; math.Abs(s.Sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
	wantCum := []uint64{1, 3, 4, 5}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %+v, want %d cumulative cells", s.Buckets, len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[3].LE, +1) {
		t.Errorf("last bucket bound = %v, want +Inf", s.Buckets[3].LE)
	}
}

// TestParseTextEscapedLabels round-trips a label value containing every
// escapable character.
func TestParseTextEscapedLabels(t *testing.T) {
	reg := NewRegistry()
	tricky := `a\b"c` + "\nd"
	reg.Counter("demo_total", "D.", Label{Key: "k", Value: tricky}).Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Counter("demo_total", map[string]string{"k": tricky}); !ok || v != 1 {
		t.Errorf("escaped-label counter = %v, %v; want 1, true", v, ok)
	}
}

// TestParseTextRejectsMalformed checks the parser is loud, not lenient.
func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "demo_total 3\n",
		"bad value":          "# TYPE demo_total counter\ndemo_total three\n",
		"unterminated label": "# TYPE demo_total counter\ndemo_total{k=\"v 3\n",
		"malformed TYPE":     "# TYPE demo_total\ndemo_total 3\n",
		"non-cumulative histogram": "# TYPE demo_seconds histogram\n" +
			"demo_seconds_bucket{le=\"1\"} 5\ndemo_seconds_bucket{le=\"+Inf\"} 3\n" +
			"demo_seconds_sum 1\ndemo_seconds_count 3\n",
		"missing +Inf bucket": "# TYPE demo_seconds histogram\n" +
			"demo_seconds_bucket{le=\"1\"} 5\ndemo_seconds_sum 1\ndemo_seconds_count 5\n",
	}
	for name, text := range cases {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
