// Package obs is the stdlib-only observability subsystem: a metrics
// registry of counters, gauges and fixed-bucket histograms with a lock-free
// hot path, lightweight span tracing (see span.go) and a Prometheus
// text-exposition handler (see prometheus.go).
//
// The registry is injectable everywhere it is consumed: a nil *Registry is a
// valid value whose handles are nil, and every operation on a nil handle is
// a no-op that performs no allocation and no atomic traffic — library code
// takes a registry parameter instead of importing a global, and callers that
// do not care pass nil at zero cost (the CI bench gate pins the obs-on
// overhead; the nil path is free by construction).
//
// Series are pre-interned: registering a metric resolves its (name, labels)
// pair to a handle once, under a mutex, and the handle's hot-path operations
// (Counter.Inc, Gauge.Set, Histogram.Observe) are plain sync/atomic ops on
// uint64 words — float64 values travel as their IEEE-754 bit patterns.
// Registration is idempotent: the same (name, labels) pair always returns
// the same handle, so wiring code may re-register freely.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value pair of a metric series.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing uint64 metric. The zero value is
// usable; a nil Counter ignores all operations.
type Counter struct {
	bits uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	atomic.AddUint64(&c.bits, n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return atomic.LoadUint64(&c.bits)
}

// Gauge is a float64 metric that can go up and down, stored as an IEEE-754
// bit pattern in a uint64. A nil Gauge ignores all operations.
type Gauge struct {
	bits uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add adds delta with a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(&g.bits, old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Histogram is a fixed-bucket histogram: observation counts per upper bound
// (Prometheus `le` semantics: v ≤ bound) plus an implicit +Inf bucket and a
// running sum. A nil Histogram ignores all operations.
type Histogram struct {
	// upper holds the finite bucket bounds, strictly increasing.
	upper []float64
	// counts has one non-cumulative cell per bound plus the +Inf cell.
	counts  []uint64
	sumBits uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound ≥ v is the bucket (le semantics); past the end is +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	atomic.AddUint64(&h.counts[i], 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += atomic.LoadUint64(&h.counts[i])
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

// DefBuckets is the default duration histogram, in seconds: sub-millisecond
// kernels through multi-second full-pipeline phases.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// metric types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one (labels, value) member of a family. Exactly one of the
// value fields is non-nil, matching the family's type.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one metric name, sharing HELP/TYPE metadata.
type family struct {
	name    string
	help    string
	typ     string
	buckets []float64
	series  []*series
	byKey   map[string]*series
}

// Registry holds metric families and the span state of span.go. The zero
// value is not usable — construct with NewRegistry — but a nil *Registry is:
// every method no-ops (or returns a nil handle) on a nil receiver.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// Span state (span.go): a cache from span name to its duration-histogram
	// series, and the optional JSONL ledger.
	spanMu    sync.RWMutex
	spanHists map[string]*Histogram

	ledgerMu sync.Mutex
	ledger   io.Writer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families:  make(map[string]*family),
		spanHists: make(map[string]*Histogram),
	}
}

// Counter returns the counter series (name, labels), registering it on
// first use. A nil registry returns a nil (no-op) handle. It panics if name
// was registered as a different type or with a different help string —
// metric identity is a programming invariant, not runtime input.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.intern(name, help, typeCounter, nil, labels)
	return s.c
}

// Gauge returns the gauge series (name, labels), registering it on first
// use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.intern(name, help, typeGauge, nil, labels)
	return s.g
}

// Histogram returns the histogram series (name, labels) with the given
// finite bucket bounds (strictly increasing; +Inf is implicit), registering
// it on first use. A nil registry returns a nil (no-op) handle. Every series
// of a family shares one bucket layout.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.intern(name, help, typeHistogram, buckets, labels)
	return s.h
}

// intern resolves (name, labels) to its series, creating family and series
// as needed. This is the cold path: callers hold the returned handle and
// never come back per operation.
func (r *Registry) intern(name, help, typ string, buckets []float64, labels []Label) *series {
	checkName(name, "metric")
	key := labelKey(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if typ == typeHistogram {
			buckets = checkBuckets(name, buckets)
		}
		f = &family{name: name, help: help, typ: typ, buckets: buckets, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: %s help mismatch: %q vs %q", name, f.help, help))
	}
	if typ == typeHistogram && !sameBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: %s bucket layout mismatch", name))
	}
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...)}
	switch typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = &Histogram{upper: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// labelKey renders labels into the canonical interning key, sorting by key
// so registration order does not split series. Duplicate keys panic.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		checkName(l.Key, "label")
		if i > 0 && sorted[i-1].Key == l.Key {
			panic("obs: duplicate label key " + l.Key)
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

// checkName enforces the Prometheus identifier charset
// [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain ':', but
// none of ours do; the stricter check keeps exposition unescapable).
func checkName(name, kind string) {
	if name == "" {
		panic("obs: empty " + kind + " name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				panic(fmt.Sprintf("obs: invalid %s name %q", kind, name))
			}
		default:
			panic(fmt.Sprintf("obs: invalid %s name %q", kind, name))
		}
	}
}

// checkBuckets validates and copies a bucket layout.
func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic("obs: histogram " + name + " with no buckets")
	}
	out := append([]float64(nil), buckets...)
	for i, b := range out {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram " + name + " with non-finite bucket bound")
		}
		if i > 0 && out[i-1] >= b {
			panic("obs: histogram " + name + " buckets not strictly increasing")
		}
	}
	return out
}

func sameBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
