package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names of the traced run. A task's spans form a tree rooted at
// spanTask: send, hop (cluster only), append, queue and detect hang off the
// root (or off hop), and select hangs off detect.
const (
	spanTask   = "task"   // due → report filed
	spanSend   = "send"   // due → request accepted by the system (lag + hand-off)
	spanHop    = "hop"    // Shard.Submit call on the coordinator side
	spanAppend = "append" // Inventory.AppendDataset
	spanQueue  = "queue"  // admitted → worker picked it up (Report.Queued)
	spanDetect = "detect" // Detector.Detect
	spanSelect = "select" // sampling.Strategy.Select inside Detect
)

// spanNames lists the span names, root first.
var spanNames = []string{spanTask, spanSend, spanHop, spanAppend, spanQueue, spanDetect, spanSelect}

// span is one timed section of one task. Start and End are nanoseconds
// since the recorder's origin.
type span struct {
	Task   int    `json:"task"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced run in memory; nothing is written
// until the workload has ended. A nil recorder records nothing, so the
// untraced run shares the call sites.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) add(task int, name, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Task: task, Name: name, Parent: parent,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byTask groups the recorded spans by task ID.
func (r *recorder) byTask() map[int][]span {
	out := make(map[int][]span)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		out[s.Task] = append(out[s.Task], s)
	}
	return out
}

// writeJSONL writes one span per line, ordered by task then start.
func (r *recorder) writeJSONL(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Task != spans[j].Task {
			return spans[i].Task < spans[j].Task
		}
		return spans[i].Start < spans[j].Start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes reduces one task's spans to self time per span name: a span's
// self time is its duration minus the part of it its children cover. A
// child is clipped to its parent's interval, and where two children overlap
// the overlap counts for the earlier one, so every instant of the root
// belongs to exactly one span and the self times sum to the root's duration
// exactly. Spans whose parent is not in the tree are ignored. It returns nil
// when the task has no root span.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[string][]span)
	var root *span
	for i, s := range spans {
		if s.Parent == "" {
			root = &spans[i]
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	if root == nil {
		return nil
	}
	self := make(map[string]int64)
	var walk func(s span, lo, hi int64)
	walk = func(s span, lo, hi int64) {
		kids := children[s.Name]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cursor := lo
		for _, k := range kids {
			klo, khi := max(k.Start, cursor), min(k.End, hi)
			if khi <= klo {
				continue
			}
			walk(k, klo, khi)
			covered += khi - klo
			cursor = khi
		}
		self[s.Name] += (hi - lo) - covered
	}
	walk(*root, root.Start, root.End)
	return self
}
