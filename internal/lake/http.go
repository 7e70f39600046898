package lake

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Status aggregates a running platform's state for the monitoring endpoint.
type Status struct {
	// Store statistics.
	StoreName    string       `json:"store_name"`
	StoreSamples int          `json:"store_samples"`
	Labels       []LabelCount `json:"labels,omitempty"`

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
	// Breaker reports the circuit breaker, when one is attached.
	Breaker *BreakerStatus `json:"breaker,omitempty"`

	// Storage reports the inventory backend's live statistics, when one is
	// attached — segment counts, live/dead bytes, and what the last
	// recovery dropped.
	Storage *InventoryStats `json:"storage,omitempty"`

	// KeepRecent is the configured bound of the Recent list.
	KeepRecent int `json:"keep_recent"`
	// Recent holds the newest task reports, most recent first.
	Recent []ReportSummary `json:"recent,omitempty"`
}

// BreakerStatus is the JSON shape of the circuit breaker's state.
type BreakerStatus struct {
	State string `json:"state"`
	Trips int    `json:"trips"`
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
type StatusTracker struct {
	mu        sync.Mutex
	store     *Store
	breaker   *Breaker
	inventory Inventory
	service   *Service
	reports   []Report
	// keepRecent bounds the recent-report ring.
	keepRecent int
}

// defaultKeepRecent is the recent-report bound when none is configured.
const defaultKeepRecent = 20

// NewStatusTracker returns a tracker over an optional store (nil is allowed;
// store statistics are then omitted).
func NewStatusTracker(store *Store) *StatusTracker {
	return &StatusTracker{store: store, keepRecent: defaultKeepRecent}
}

// SetKeepRecent bounds the recent-report list served by Snapshot (default
// 20). Values below 1 restore the default.
func (t *StatusTracker) SetKeepRecent(n int) {
	if n < 1 {
		n = defaultKeepRecent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keepRecent = n
}

// AttachBreaker makes snapshots report the circuit breaker's live state and
// trip count. A nil breaker (policy without one) is ignored.
func (t *StatusTracker) AttachBreaker(b *Breaker) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.breaker = b
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
	t.reports = append(t.reports, rep)
}

// Snapshot builds the current status.
func (t *StatusTracker) Snapshot() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{KeepRecent: t.keepRecent}
	if t.store != nil {
		meta := t.store.Meta()
		st.StoreName = meta.Name
		st.StoreSamples = t.store.Len()
		st.Labels = t.store.LabelHistogram()
	}
	if t.breaker != nil {
		st.Breaker = &BreakerStatus{State: t.breaker.State().String(), Trips: t.breaker.Trips()}
	}
	if t.inventory != nil {
		s := t.inventory.Stats()
		st.Storage = &s
	}
	if t.service != nil {
		ov := t.service.OverloadStatus()
		st.Overload = &ov
	}
	var f1Sum float64
	var procSum, queueSum time.Duration
	ok := 0
	for _, rep := range t.reports {
		st.TasksProcessed++
		if rep.Degraded {
			st.TasksDegraded++
		}
		if rep.DeadLettered {
			st.TasksDeadLetter++
		}
		// Shed and abandoned tasks carry an explanatory error but are their
		// own outcome classes, not detection failures.
		if rep.Shed {
			st.TasksShed++
			continue
		}
		if rep.Abandoned {
			st.TasksAbandoned++
			continue
		}
		if rep.Err != nil {
			st.TasksFailed++
			continue
		}
		ok++
		f1Sum += rep.Detection.F1
		procSum += rep.Process
		queueSum += rep.Queued
	}
	if ok > 0 {
		st.MeanF1 = f1Sum / float64(ok)
		st.MeanProcessSec = procSum.Seconds() / float64(ok)
		st.MeanQueuedSec = queueSum.Seconds() / float64(ok)
	}
	// Most recent first, bounded.
	recent := append([]Report(nil), t.reports...)
	sort.SliceStable(recent, func(i, j int) bool { return recent[i].TaskID > recent[j].TaskID })
	if len(recent) > t.keepRecent {
		recent = recent[:t.keepRecent]
	}
	for _, rep := range recent {
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
		st.Recent = append(st.Recent, rs)
	}
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
