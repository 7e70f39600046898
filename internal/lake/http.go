package lake

import (
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
)

// Status aggregates a running platform's state for the monitoring endpoint.
type Status struct {
	// Task statistics.
	TasksProcessed int     `json:"tasks_processed"`
	TasksFailed    int     `json:"tasks_failed"`
	MeanF1         float64 `json:"mean_f1"`
	MeanProcessSec float64 `json:"mean_process_sec"`
	MeanQueuedSec  float64 `json:"mean_queued_sec"`

	// Resilience statistics: degraded tasks served by the fallback
	// detector and dead-lettered tasks that exhausted every path.
	TasksDegraded   int `json:"tasks_degraded"`
	TasksDeadLetter int `json:"tasks_dead_lettered"`
	// Overload statistics: tasks shed at admission (a load-control decision,
	// counted apart from failures) and tasks abandoned at shutdown.
	TasksShed      int `json:"tasks_shed"`
	TasksAbandoned int `json:"tasks_abandoned"`
	// Overload reports the service's live overload-control state — queue
	// occupancy and shed counts — when a service is attached.
	Overload *OverloadStatus `json:"overload,omitempty"`

	// Storage reports the inventory backend's live statistics, when one is
	// attached — segment counts, live/dead bytes, and what the last
	// recovery dropped.
	Storage *InventoryStats `json:"storage,omitempty"`

	// KeepRecent is the configured bound of the Recent list.
	KeepRecent int `json:"keep_recent"`
	// Recent holds the newest task reports, most recent first.
	Recent []ReportSummary `json:"recent,omitempty"`
}

// ReportSummary is the JSON shape of one processed task.
type ReportSummary struct {
	TaskID     int     `json:"task_id"`
	Size       int     `json:"size"`
	Noisy      int     `json:"noisy"`
	F1         float64 `json:"f1"`
	ProcessSec float64 `json:"process_sec"`
	QueuedSec  float64 `json:"queued_sec"`
	Failed     bool    `json:"failed,omitempty"`
	// Error carries the failure cause, not just the Failed bit, so the
	// status endpoint shows why a task failed.
	Error        string `json:"error,omitempty"`
	Degraded     bool   `json:"degraded,omitempty"`
	DeadLettered bool   `json:"dead_lettered,omitempty"`
	Shed         bool   `json:"shed,omitempty"`
	Abandoned    bool   `json:"abandoned,omitempty"`
	Tier         string `json:"tier,omitempty"`
	// Shard and Rerouted carry cluster placement outcomes when the report
	// came through a coordinator (see internal/lake/cluster).
	Shard    string `json:"shard,omitempty"`
	Rerouted bool   `json:"rerouted,omitempty"`
}

// StatusTracker accumulates task reports and serves them over HTTP. It is
// safe for concurrent use: workers record reports while the endpoint reads.
// It keeps running counts and sums plus the newest keepRecent summaries, so
// its size and a snapshot's cost do not grow with the tasks served.
type StatusTracker struct {
	mu        sync.Mutex
	inventory Inventory
	service   *Service
	// tally carries the task counts; ok, f1Sum, procSum and queueSum feed
	// the means over tasks that produced scored output.
	tally             Status
	ok                int
	f1Sum             float64
	procSum, queueSum time.Duration
	// recent holds at most keepRecent summaries, TaskID descending; equal
	// IDs stay in record order.
	recent     []ReportSummary
	keepRecent int
}

// defaultKeepRecent is the recent-report bound when none is configured.
const defaultKeepRecent = 20

// NewStatusTracker returns an empty tracker.
func NewStatusTracker() *StatusTracker {
	return &StatusTracker{keepRecent: defaultKeepRecent}
}

// SetKeepRecent bounds the recent-report list served by Snapshot (default
// 20). Values below 1 restore the default. Set it before recording: a larger
// bound does not bring back summaries already dropped.
func (t *StatusTracker) SetKeepRecent(n int) {
	if n < 1 {
		n = defaultKeepRecent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keepRecent = n
	if len(t.recent) > n {
		t.recent = t.recent[:n]
	}
}

// AttachInventory makes snapshots report the storage backend's live
// statistics (Inventory.Stats is re-read at every snapshot). A nil
// inventory detaches.
func (t *StatusTracker) AttachInventory(inv Inventory) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inventory = inv
}

// AttachService makes snapshots report the service's live overload-control
// state (Service.OverloadStatus is re-read at every snapshot): admission
// queue depth and capacity, the shedder's service-time estimate and the
// shed/abandoned counts. A nil service detaches.
func (t *StatusTracker) AttachService(svc *Service) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.service = svc
}

// Record adds a processed task report.
func (t *StatusTracker) Record(rep Report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count(rep)
	// Insert after every summary with an ID at least rep's, so equal IDs
	// keep record order; a summary that would land past the bound is
	// dropped.
	at := sort.Search(len(t.recent), func(i int) bool { return t.recent[i].TaskID < rep.TaskID })
	if at >= t.keepRecent {
		return
	}
	t.recent = slices.Insert(t.recent, at, summarize(rep))
	if len(t.recent) > t.keepRecent {
		t.recent = t.recent[:t.keepRecent]
	}
}

// count folds rep into the running counts and sums.
func (t *StatusTracker) count(rep Report) {
	c := &t.tally
	c.TasksProcessed++
	if rep.Degraded {
		c.TasksDegraded++
	}
	if rep.DeadLettered {
		c.TasksDeadLetter++
	}
	// Shed and abandoned tasks carry an explanatory error but are their own
	// outcome classes, not detection failures.
	switch {
	case rep.Shed:
		c.TasksShed++
	case rep.Abandoned:
		c.TasksAbandoned++
	case rep.Err != nil:
		c.TasksFailed++
	default:
		t.ok++
		t.f1Sum += rep.Detection.F1
		t.procSum += rep.Process
		t.queueSum += rep.Queued
	}
}

// summarize renders one report's JSON summary.
func summarize(rep Report) ReportSummary {
	rs := ReportSummary{
		TaskID:       rep.TaskID,
		Size:         rep.Size,
		F1:           rep.Detection.F1,
		ProcessSec:   rep.Process.Seconds(),
		QueuedSec:    rep.Queued.Seconds(),
		Failed:       rep.Err != nil && !rep.Shed && !rep.Abandoned,
		Degraded:     rep.Degraded,
		DeadLettered: rep.DeadLettered,
		Shed:         rep.Shed,
		Abandoned:    rep.Abandoned,
		Tier:         rep.Tier,
		Shard:        rep.Shard,
		Rerouted:     rep.Rerouted,
	}
	if rep.Err != nil {
		rs.Error = rep.Err.Error()
	}
	if rep.Result != nil {
		rs.Noisy = len(rep.Result.Noisy)
	}
	return rs
}

// Snapshot builds the current status.
func (t *StatusTracker) Snapshot() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.tally
	st.KeepRecent = t.keepRecent
	if t.inventory != nil {
		s := t.inventory.Stats()
		st.Storage = &s
	}
	if t.service != nil {
		ov := t.service.OverloadStatus()
		st.Overload = &ov
	}
	if t.ok > 0 {
		st.MeanF1 = t.f1Sum / float64(t.ok)
		st.MeanProcessSec = t.procSum.Seconds() / float64(t.ok)
		st.MeanQueuedSec = t.queueSum.Seconds() / float64(t.ok)
	}
	st.Recent = append([]ReportSummary(nil), t.recent...)
	return st
}

// Handler returns an http.Handler serving the status as JSON at any path.
// Mount it on a mux (e.g. /statusz) to monitor a running lake simulation.
func (t *StatusTracker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(t.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
