package lake

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/mat"
	"enld/internal/metrics"
)

func trackerWithData(t *testing.T) *StatusTracker {
	t.Helper()
	tr := NewStatusTracker()
	res := detect.NewResult()
	res.MarkNoisy(5)
	res.MarkClean(6)
	tr.Record(Report{
		TaskID: 0, Size: 2, Result: res,
		Detection: metrics.Detection{F1: 0.8},
		Process:   100 * time.Millisecond, Queued: 10 * time.Millisecond,
	})
	tr.Record(Report{TaskID: 1, Size: 3, Err: errFake, DeadLettered: true})
	return tr
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestSnapshot(t *testing.T) {
	tr := trackerWithData(t)
	st := tr.Snapshot()
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
	if st.TasksDeadLetter != 1 || st.TasksDegraded != 0 {
		t.Fatalf("resilience stats: %+v", st)
	}
}

func TestSnapshotDegraded(t *testing.T) {
	tr := NewStatusTracker()
	tr.Record(Report{TaskID: 0, Degraded: true, Detection: metrics.Detection{F1: 0.5}})
	st := tr.Snapshot()
	if st.TasksDegraded != 1 {
		t.Fatalf("degraded = %d", st.TasksDegraded)
	}
	if !st.Recent[0].Degraded {
		t.Fatalf("recent = %+v", st.Recent[0])
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
	tr := NewStatusTracker()
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
	tr := NewStatusTracker()
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
	tr := NewStatusTracker()
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

// TestTrackerMatchesAllReports: the running counts and the bounded recent
// list give the same snapshot as a computation over every report ever
// recorded, while the tracker keeps at most keepRecent summaries.
func TestTrackerMatchesAllReports(t *testing.T) {
	rng := mat.NewRNG(9)
	reports := make([]Report, 1000)
	for i, id := range rng.Perm(len(reports)) {
		rep := Report{
			TaskID:    id % 700, // repeated IDs exercise the record-order tie break
			Size:      1 + rng.Intn(50),
			Process:   time.Duration(rng.Intn(1e9)),
			Queued:    time.Duration(rng.Intn(1e8)),
			Detection: metrics.Detection{F1: rng.Float64()},
			Shard:     fmt.Sprint("s", i%3),
		}
		switch rng.Intn(6) {
		case 0:
			rep.Shed, rep.Err = true, errFake
		case 1:
			rep.Abandoned, rep.Err = true, errFake
		case 2:
			rep.DeadLettered, rep.Err = true, errFake
		case 3:
			rep.Degraded, rep.Tier = true, TierFallback
		default:
			rep.Result = detect.NewResult()
			rep.Result.MarkNoisy(i)
		}
		reports[i] = rep
	}
	for _, keep := range []int{1, 20, 2000} {
		tr := NewStatusTracker()
		tr.SetKeepRecent(keep)
		for _, rep := range reports {
			tr.Record(rep)
			if len(tr.recent) > keep {
				t.Fatalf("keep=%d: tracker holds %d summaries", keep, len(tr.recent))
			}
		}
		if got, want := tr.Snapshot(), allReportsStatus(reports, keep); !reflect.DeepEqual(got, want) {
			t.Fatalf("keep=%d: snapshot differs from the all-reports computation\ngot  %+v\nwant %+v", keep, got, want)
		}
	}
}

// allReportsStatus is the reference: counts and means over every report,
// and the newest keep summaries by a stable sort on TaskID.
func allReportsStatus(reports []Report, keep int) Status {
	st := Status{KeepRecent: keep}
	var f1Sum float64
	var procSum, queueSum time.Duration
	ok := 0
	for _, rep := range reports {
		st.TasksProcessed++
		if rep.Degraded {
			st.TasksDegraded++
		}
		if rep.DeadLettered {
			st.TasksDeadLetter++
		}
		switch {
		case rep.Shed:
			st.TasksShed++
		case rep.Abandoned:
			st.TasksAbandoned++
		case rep.Err != nil:
			st.TasksFailed++
		default:
			ok++
			f1Sum += rep.Detection.F1
			procSum += rep.Process
			queueSum += rep.Queued
		}
	}
	if ok > 0 {
		st.MeanF1 = f1Sum / float64(ok)
		st.MeanProcessSec = procSum.Seconds() / float64(ok)
		st.MeanQueuedSec = queueSum.Seconds() / float64(ok)
	}
	recent := append([]Report(nil), reports...)
	sort.SliceStable(recent, func(i, j int) bool { return recent[i].TaskID > recent[j].TaskID })
	for _, rep := range recent[:min(keep, len(recent))] {
		rs := ReportSummary{
			TaskID: rep.TaskID, Size: rep.Size, F1: rep.Detection.F1,
			ProcessSec: rep.Process.Seconds(), QueuedSec: rep.Queued.Seconds(),
			Failed:   rep.Err != nil && !rep.Shed && !rep.Abandoned,
			Degraded: rep.Degraded, DeadLettered: rep.DeadLettered,
			Shed: rep.Shed, Abandoned: rep.Abandoned, Tier: rep.Tier,
			Shard: rep.Shard, Rerouted: rep.Rerouted,
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

// TestSnapshotStorage: /statusz surfaces the inventory backend's live
// statistics.
func TestSnapshotStorage(t *testing.T) {
	tr := NewStatusTracker()
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

	tr := NewStatusTracker()
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
