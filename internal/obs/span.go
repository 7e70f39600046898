package obs

import (
	"encoding/json"
	"io"
	"time"
)

// SpanFamily is the histogram family every span duration is recorded into,
// one series per span name under the "span" label. Detection phases use
// names like "detect/finetune", so the whole per-phase latency profile of a
// request lives in one family.
const SpanFamily = "enld_span_duration_seconds"

const spanFamilyHelp = "Duration of traced spans, by span name."

// Span is an in-flight traced section. The zero Span (from a nil registry)
// is valid and End on it is an allocation-free no-op, so callers trace
// unconditionally:
//
//	sp := reg.StartSpan("detect/finetune")
//	... work ...
//	sp.End()
type Span struct {
	r     *Registry
	name  string
	start time.Time
}

// StartSpan begins a span. A nil registry returns the zero Span.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, start: time.Now()}
}

// End completes the span: its duration is observed into the SpanFamily
// histogram and, when a ledger is attached, one JSONL event is written.
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := time.Since(s.start)
	s.r.spanHist(s.name).Observe(d.Seconds())
	s.r.writeLedger(s, d)
}

// spanHist returns the duration histogram of a span name, interning it on
// first use. The read path is a shared-lock map hit; only a name's first
// span takes the registration path.
func (r *Registry) spanHist(name string) *Histogram {
	r.spanMu.RLock()
	h := r.spanHists[name]
	r.spanMu.RUnlock()
	if h != nil {
		return h
	}
	h = r.Histogram(SpanFamily, spanFamilyHelp, DefBuckets, Label{Key: "span", Value: name})
	r.spanMu.Lock()
	r.spanHists[name] = h
	r.spanMu.Unlock()
	return h
}

// writeLedger appends the completed span s, which took d, to the ledger,
// if one is attached.
func (r *Registry) writeLedger(s Span, d time.Duration) {
	r.ledgerMu.Lock()
	defer r.ledgerMu.Unlock()
	if r.ledger == nil {
		return
	}
	line, err := json.Marshal(spanEvent{
		TS:    s.start.UTC().Format(time.RFC3339Nano),
		Span:  s.name,
		DurNS: d.Nanoseconds(),
	})
	if err == nil {
		r.ledger.Write(append(line, '\n'))
	}
}

// spanEvent is the JSONL ledger record.
type spanEvent struct {
	TS    string `json:"ts"`
	Span  string `json:"span"`
	DurNS int64  `json:"dur_ns"`
}

// SetSpanLedger attaches (or, with nil, detaches) a JSONL event ledger:
// every completed span appends one {"ts", "span", "dur_ns"} line for
// post-run analysis. Writes are serialized; the writer need not be
// concurrency-safe. The caller owns the writer's lifecycle (flush/close
// after the run). No-op on a nil registry.
func (r *Registry) SetSpanLedger(w io.Writer) {
	if r == nil {
		return
	}
	r.ledgerMu.Lock()
	r.ledger = w
	r.ledgerMu.Unlock()
}
