package lake

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/metrics"
)

func trackerWithData(t *testing.T) *StatusTracker {
	t.Helper()
	st, err := NewStore(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(dataset.Set{sample(1, 0), sample(2, 1)}); err != nil {
		t.Fatal(err)
	}
	tr := NewStatusTracker(st)
	res := detect.NewResult()
	res.MarkNoisy(5)
	res.MarkClean(6)
	tr.Record(Report{
		TaskID: 0, Size: 2, Result: res,
		Detection: metrics.Detection{F1: 0.8},
		Process:   100 * time.Millisecond, Queued: 10 * time.Millisecond,
	})
	tr.Record(Report{TaskID: 1, Size: 3, Err: errFake, Retries: 2, DeadLettered: true})
	return tr
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestSnapshot(t *testing.T) {
	tr := trackerWithData(t)
	st := tr.Snapshot()
	if st.StoreName != "t" || st.StoreSamples != 2 {
		t.Fatalf("store stats: %+v", st)
	}
	if st.TasksProcessed != 2 || st.TasksFailed != 1 {
		t.Fatalf("task stats: %+v", st)
	}
	if st.MeanF1 != 0.8 {
		t.Fatalf("mean f1 = %v", st.MeanF1)
	}
	if len(st.Recent) != 2 || st.Recent[0].TaskID != 1 {
		t.Fatalf("recent = %+v", st.Recent)
	}
	if st.Recent[1].Noisy != 1 {
		t.Fatalf("noisy count = %d", st.Recent[1].Noisy)
	}
	// Error fidelity: the summary carries the cause, not just a bit.
	if st.Recent[0].Error != "fake" || !st.Recent[0].Failed || !st.Recent[0].DeadLettered {
		t.Fatalf("failed summary = %+v", st.Recent[0])
	}
	if st.Recent[1].Error != "" {
		t.Fatalf("successful summary has error %q", st.Recent[1].Error)
	}
	if st.TotalRetries != 2 || st.TasksDeadLetter != 1 || st.TasksDegraded != 0 {
		t.Fatalf("resilience stats: %+v", st)
	}
}

func TestSnapshotDegradedAndBreaker(t *testing.T) {
	tr := NewStatusTracker(nil)
	tr.Record(Report{TaskID: 0, Degraded: true, Detection: metrics.Detection{F1: 0.5}})
	b := NewBreaker(1, time.Minute)
	b.Failure()
	tr.AttachBreaker(b)
	st := tr.Snapshot()
	if st.TasksDegraded != 1 {
		t.Fatalf("degraded = %d", st.TasksDegraded)
	}
	if st.Breaker == nil || st.Breaker.State != "open" || st.Breaker.Trips != 1 {
		t.Fatalf("breaker status = %+v", st.Breaker)
	}
	if !st.Recent[0].Degraded {
		t.Fatalf("recent = %+v", st.Recent[0])
	}
}

func TestSnapshotNilStore(t *testing.T) {
	tr := NewStatusTracker(nil)
	st := tr.Snapshot()
	if st.StoreName != "" || st.StoreSamples != 0 {
		t.Fatalf("nil store stats: %+v", st)
	}
}

func TestHandlerServesJSON(t *testing.T) {
	tr := trackerWithData(t)
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TasksProcessed != 2 {
		t.Fatalf("decoded %+v", st)
	}
}

func TestHandlerRejectsPost(t *testing.T) {
	tr := NewStatusTracker(nil)
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewStatusTracker(nil)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr.Record(Report{TaskID: id, Detection: metrics.Detection{F1: 0.5}})
			tr.Snapshot()
		}(i)
	}
	wg.Wait()
	if st := tr.Snapshot(); st.TasksProcessed != 20 {
		t.Fatalf("processed %d", st.TasksProcessed)
	}
}

func TestRecentBounded(t *testing.T) {
	tr := NewStatusTracker(nil)
	for i := 0; i < 50; i++ {
		tr.Record(Report{TaskID: i})
	}
	st := tr.Snapshot()
	if len(st.Recent) != 20 {
		t.Fatalf("recent = %d", len(st.Recent))
	}
	if st.Recent[0].TaskID != 49 {
		t.Fatalf("most recent = %d", st.Recent[0].TaskID)
	}
}

func TestSnapshotTrainingHealth(t *testing.T) {
	tr := NewStatusTracker(nil)
	if tr.Snapshot().Training != nil {
		t.Fatal("training health present before SetTrainingHealth")
	}
	tr.SetTrainingHealth(TrainingHealth{
		HealthChecks: 40, Rollbacks: 2, LastUnhealthyEpoch: 7,
		CheckpointsTaken: 9, CheckpointVerifyFailures: 1,
	})
	st := tr.Snapshot()
	if st.Training == nil {
		t.Fatal("training health missing from snapshot")
	}
	if st.Training.Rollbacks != 2 || st.Training.LastUnhealthyEpoch != 7 || st.Training.CheckpointVerifyFailures != 1 {
		t.Fatalf("training health = %+v", st.Training)
	}

	// The snapshot holds a copy: later mutation does not leak into it.
	tr.SetTrainingHealth(TrainingHealth{Rollbacks: 99})
	if st.Training.Rollbacks != 2 {
		t.Fatal("snapshot aliases tracker state")
	}

	data, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	th, ok := decoded["training_health"].(map[string]any)
	if !ok {
		t.Fatalf("training_health missing from JSON: %s", data)
	}
	if th["rollbacks"].(float64) != 99 {
		t.Fatalf("training_health JSON = %v", th)
	}
	for _, key := range []string{"health_checks", "last_unhealthy_epoch", "checkpoints_taken", "checkpoint_verify_failures"} {
		if _, ok := th[key]; !ok {
			t.Fatalf("training_health JSON lacks %q: %v", key, th)
		}
	}
}

// TestSnapshotStorage: /statusz surfaces the inventory backend's live
// statistics.
func TestSnapshotStorage(t *testing.T) {
	tr := NewStatusTracker(nil)
	inv := NewMemInventory()
	if _, err := inv.AppendDataset("a", dataset.Set{sample(1, 0), sample(2, 1)}); err != nil {
		t.Fatal(err)
	}
	tr.AttachInventory(inv)

	st := tr.Snapshot()
	if st.Storage == nil || st.Storage.Backend != "memory" || st.Storage.Datasets != 1 || st.Storage.Samples != 2 {
		t.Fatalf("storage section = %+v", st.Storage)
	}

	// Live re-read: a later append shows up in the next snapshot.
	if _, err := inv.AppendDataset("b", dataset.Set{sample(3, 0)}); err != nil {
		t.Fatal(err)
	}
	if st := tr.Snapshot(); st.Storage.Datasets != 2 {
		t.Fatalf("snapshot is stale: %+v", st.Storage)
	}

	// The section survives the JSON round trip the endpoint serves.
	var decoded Status
	data, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Storage == nil || decoded.Storage.Samples != 3 {
		t.Fatalf("decoded = %+v", decoded.Storage)
	}
}

// TestSnapshotOverloadBlock: /statusz surfaces the live overload-control
// state — queue occupancy and shed/abandoned accounting — and the
// JSON wire shape stays stable for dashboards.
func TestSnapshotOverloadBlock(t *testing.T) {
	svc, err := NewServiceWithPolicy(flagOdd{}, 2, Policy{
		Admission: AdmissionConfig{QueueDepth: 16, MaxQueueWait: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetBrownout([]TierDetector{
		{Name: TierFull, Detector: flagOdd{}},
		{Name: TierFallback, Detector: flagAll{}},
	}); err != nil {
		t.Fatal(err)
	}

	tr := NewStatusTracker(nil)
	tr.AttachService(svc)
	tr.Record(Report{TaskID: 0, Tier: TierFull, Detection: metrics.Detection{F1: 0.9}})
	tr.Record(Report{TaskID: 1, Shed: true, Err: errFake})
	tr.Record(Report{TaskID: 2, Tier: TierFull, Abandoned: true, Err: errFake})
	svc.shed.Add(1)
	svc.abandoned.Add(1)

	st := tr.Snapshot()
	if st.TasksShed != 1 || st.TasksAbandoned != 1 {
		t.Fatalf("shed/abandoned counts: %+v", st)
	}
	// Shed and abandoned are their own outcome classes, not failures.
	if st.TasksFailed != 0 {
		t.Fatalf("shed/abandoned counted as failures: %+v", st)
	}
	if st.Overload == nil || st.Overload.QueueCapacity != 16 || st.Overload.TasksShed != 1 {
		t.Fatalf("overload section = %+v", st.Overload)
	}

	// Pin the exact JSON key shape the endpoint serves.
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tasks_shed", "tasks_abandoned", "overload"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("status JSON missing %q: %v", key, keysOf(raw))
		}
	}
	var ov map[string]json.RawMessage
	if err := json.Unmarshal(raw["overload"], &ov); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"queue_depth", "queue_capacity", "ewma_task_seconds",
		"tasks_shed", "tasks_abandoned",
	} {
		if _, ok := ov[key]; !ok {
			t.Fatalf("overload JSON missing %q: %v", key, keysOf(ov))
		}
	}
	var recent []map[string]json.RawMessage
	if err := json.Unmarshal(raw["recent"], &recent); err != nil {
		t.Fatal(err)
	}
	// Most recent first: task 2 (abandoned), task 1 (shed), task 0 (ok).
	if _, ok := recent[0]["abandoned"]; !ok {
		t.Fatalf("recent[0] missing abandoned flag: %v", keysOf(recent[0]))
	}
	if _, ok := recent[1]["shed"]; !ok {
		t.Fatalf("recent[1] missing shed flag: %v", keysOf(recent[1]))
	}
	if _, ok := recent[2]["tier"]; !ok {
		t.Fatalf("recent[2] missing tier: %v", keysOf(recent[2]))
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
