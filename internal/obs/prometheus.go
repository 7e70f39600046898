package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ContentType is the Prometheus text exposition format version this package
// emits.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ParsedBucket is one cumulative histogram bucket: the count of observations
// at or below LE.
type ParsedBucket struct {
	LE    float64
	Count uint64
}

// ParsedSeries is one labelled member of a family. Counter and gauge series
// carry Value; histogram series carry Buckets (cumulative, ascending, ending
// at +Inf), Sum and Count.
type ParsedSeries struct {
	Labels  map[string]string
	Value   float64
	Buckets []ParsedBucket
	Sum     float64
	Count   uint64
}

// ParsedFamily groups the series of one metric name.
type ParsedFamily struct {
	Name   string
	Help   string
	Type   string
	Series []*ParsedSeries
}

// Parsed is the one metrics model of this package, keyed by family name: a
// registry's Snapshot, a scraped exposition's ParseText and a cluster's
// MergeExpositions all produce it, and WriteParsed renders it.
type Parsed map[string]*ParsedFamily

// Snapshot returns every registered family as typed values. Each
// histogram's bucket cells are read once, so its +Inf bucket always equals
// its Count. A nil registry returns nil.
func (r *Registry) Snapshot() Parsed {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Parsed, len(r.families))
	for name, f := range r.families {
		pf := &ParsedFamily{Name: name, Help: f.help, Type: f.typ, Series: make([]*ParsedSeries, len(f.series))}
		for i, s := range f.series {
			ps := &ParsedSeries{Labels: make(map[string]string, len(s.labels))}
			for _, l := range s.labels {
				ps.Labels[l.Key] = l.Value
			}
			switch f.typ {
			case typeCounter:
				ps.Value = float64(s.c.Value())
			case typeGauge:
				ps.Value = s.g.Value()
			case typeHistogram:
				ps.Buckets = make([]ParsedBucket, len(s.h.counts))
				for j := range ps.Buckets {
					le := math.Inf(+1)
					if j < len(f.buckets) {
						le = f.buckets[j]
					}
					ps.Count += atomic.LoadUint64(&s.h.counts[j])
					ps.Buckets[j] = ParsedBucket{LE: le, Count: ps.Count}
				}
				ps.Sum = s.h.Sum()
			}
			pf.Series[i] = ps
		}
		out[name] = pf
	}
	return out
}

// WritePrometheus renders the registry's Snapshot with WriteParsed. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	return WriteParsed(w, r.Snapshot())
}

// WriteParsed renders p in the Prometheus text exposition format (version
// 0.0.4): families sorted by name, a HELP then a TYPE line each, series
// sorted by label set. Histograms emit cumulative `_bucket` series
// (le-labelled, closing with +Inf), `_sum` and `_count`. Counters print as
// integers, gauges and sums in the shortest round-trip form. The output is
// what ParseText reads back, single-node and merged cluster view alike.
func WriteParsed(w io.Writer, p Parsed) error {
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, name := range names {
		f := p[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, helpEscaper.Replace(f.Help), f.Name, f.Type)
		series := append([]*ParsedSeries(nil), f.Series...)
		sort.SliceStable(series, func(i, j int) bool {
			return mapKey(series[i].Labels) < mapKey(series[j].Labels)
		})
		for _, s := range series {
			labels := renderLabels(s.Labels, "")
			switch f.Type {
			case typeCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labels, strconv.FormatFloat(s.Value, 'f', -1, 64))
			case typeGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labels, formatFloat(s.Value))
			case typeHistogram:
				for _, bk := range s.Buckets {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name, renderLabels(s.Labels, formatFloat(bk.LE)), bk.Count)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, labels, formatFloat(s.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labels, s.Count)
			default:
				return fmt.Errorf("obs: render: family %s has unsupported type %q", f.Name, f.Type)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// renderLabels renders a label set as {k="v",...}, keys sorted and values
// escaped, with le="<le>" appended when le is not empty (histogram
// buckets). An empty set renders as "".
func renderLabels(labels map[string]string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for _, k := range keys {
		fmt.Fprintf(&b, `%s="%s",`, k, labelEscaper.Replace(labels[k]))
	}
	if le != "" {
		fmt.Fprintf(&b, `le="%s",`, le)
	}
	out := b.String()
	return out[:len(out)-1] + "}"
}

// The text format's escapes: backslash, double-quote and newline in label
// values; backslash and newline in HELP text.
var (
	labelEscaper  = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper   = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")
)

// formatFloat renders a sample value: shortest round-trip representation,
// with the spellings the text format prescribes for the non-finite values.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the exposition — mount it as
// /metrics next to the JSON status endpoint. A nil registry serves an empty
// (valid) exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Counter returns the value of the named counter series, matching labels
// exactly (nil matches the unlabelled series). The second return is false
// when family or series is absent.
func (p Parsed) Counter(name string, labels map[string]string) (float64, bool) {
	return p.scalar(name, typeCounter, labels)
}

// Gauge is Counter for gauge families.
func (p Parsed) Gauge(name string, labels map[string]string) (float64, bool) {
	return p.scalar(name, typeGauge, labels)
}

func (p Parsed) scalar(name, typ string, labels map[string]string) (float64, bool) {
	if f := p[name]; f != nil && f.Type == typ {
		if s := f.find(labels); s != nil {
			return s.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram series, matching labels exactly.
func (p Parsed) Histogram(name string, labels map[string]string) (*ParsedSeries, bool) {
	if f := p[name]; f != nil && f.Type == typeHistogram {
		if s := f.find(labels); s != nil {
			return s, true
		}
	}
	return nil, false
}

// find returns the series with exactly these labels, or nil.
func (f *ParsedFamily) find(labels map[string]string) *ParsedSeries {
	key := mapKey(labels)
	for _, s := range f.Series {
		if mapKey(s.Labels) == key {
			return s
		}
	}
	return nil
}

// mapKey renders a label set into a canonical comparable key.
func mapKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(0)
	}
	return b.String()
}
