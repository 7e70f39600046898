package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSpanRecordsHistogram(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("detect/finetune")
		sp.End()
	}
	h := r.Histogram(SpanFamily, spanFamilyHelp, DefBuckets, Label{Key: "span", Value: "detect/finetune"})
	if got := h.Count(); got != 3 {
		t.Fatalf("span histogram count = %d, want 3", got)
	}
}

func TestSpanLedgerJSONL(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.SetSpanLedger(&buf)
	names := []string{"detect/split", "detect/knn", `weird "name"` + "\n"}
	for _, n := range names {
		sp := r.StartSpan(n)
		sp.End()
	}
	r.SetSpanLedger(nil)
	sp := r.StartSpan("after-detach")
	sp.End()

	sc := bufio.NewScanner(&buf)
	var got []spanEvent
	for sc.Scan() {
		var ev spanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad ledger line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if len(got) != len(names) {
		t.Fatalf("ledger has %d events, want %d", len(got), len(names))
	}
	for i, ev := range got {
		if ev.Span != names[i] {
			t.Fatalf("event %d span = %q, want %q", i, ev.Span, names[i])
		}
		if ev.DurNS < 0 {
			t.Fatalf("event %d negative duration", i)
		}
		if _, err := time.Parse(time.RFC3339Nano, ev.TS); err != nil {
			t.Fatalf("event %d bad timestamp %q: %v", i, ev.TS, err)
		}
	}
}
