package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestSnapshotMatchesParseText is the property that lets a coordinator treat
// in-process and HTTP shards alike: for random registries — counters, gauges
// including NaN and ±Inf, histograms, label values and help text with every
// escapable character — Snapshot equals ParseText of the rendered text.
func TestSnapshotMatchesParseText(t *testing.T) {
	words := []string{"ok", `a\b`, `say "hi"`, "two\nlines", `\n`, ""}
	gauges := []float64{0, -2.5, 1e-300, 1 << 60, math.NaN(), math.Inf(+1), math.Inf(-1)}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		for f := 0; f < 1+rng.Intn(6); f++ {
			name := fmt.Sprintf("fam%d", f)
			help := "Help " + words[rng.Intn(len(words))]
			for s := 0; s < 1+rng.Intn(4); s++ {
				var labels []Label
				if s > 0 {
					labels = []Label{{Key: "k", Value: fmt.Sprintf("%d%s", s, words[rng.Intn(len(words))])}}
				}
				switch f % 3 {
				case 0:
					reg.Counter(name, help, labels...).Add(uint64(rng.Int63n(1 << 40)))
				case 1:
					reg.Gauge(name, help, labels...).Set(gauges[rng.Intn(len(gauges))])
				case 2:
					h := reg.Histogram(name, help, []float64{0.001, 0.5, 7}, labels...)
					for i := rng.Intn(20); i > 0; i-- {
						h.Observe(rng.ExpFloat64())
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, buf.String())
		}
		if err := sameFamilies(reg.Snapshot(), parsed); err != nil {
			t.Fatalf("seed %d: snapshot and parsed text differ: %v\n%s", seed, err, buf.String())
		}
	}
}

// sameFamilies compares two metric models, ignoring series order and
// treating NaN as equal to NaN.
func sameFamilies(a, b Parsed) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d families vs %d", len(a), len(b))
	}
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	for name, fa := range a {
		fb := b[name]
		if fb == nil || fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Series) != len(fb.Series) {
			return fmt.Errorf("family %s: %+v vs %+v", name, fa, fb)
		}
		for _, sa := range fa.Series {
			sb := fb.find(sa.Labels)
			if sb == nil || !same(sa.Value, sb.Value) || !same(sa.Sum, sb.Sum) || sa.Count != sb.Count ||
				!reflect.DeepEqual(sa.Buckets, sb.Buckets) {
				return fmt.Errorf("family %s series %v: %+v vs %+v", name, sa.Labels, sa, sb)
			}
		}
	}
	return nil
}
