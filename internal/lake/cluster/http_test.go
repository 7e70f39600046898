package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enld/internal/lake"
	"enld/internal/obs"
)

func newHTTPWorker(t *testing.T, name string) (*ShardWorker, *httptest.Server) {
	t.Helper()
	w, err := NewShardWorker(stubDetector{}, WorkerConfig{Name: name, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = w.Drain(ctx)
	})
	return w, srv
}

func TestHTTPShardRoundTrip(t *testing.T) {
	_, srv := newHTTPWorker(t, "h0")
	shard := NewHTTPShard("h0", srv.URL)

	ctx := context.Background()
	rep, err := shard.Submit(ctx, lake.Request{TaskID: 7, Data: testSet(7)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TaskID != 7 || rep.Err != nil || rep.Shard != "h0" {
		t.Fatalf("round-trip report: %+v", rep)
	}
	if rep.Result == nil || len(rep.Result.Noisy) != 1 || len(rep.Result.Clean) != 7 {
		t.Fatalf("result did not survive the wire: %+v", rep.Result)
	}
	if rep.Detection.F1 != 1 {
		t.Fatalf("detection lost on the wire: %+v", rep.Detection)
	}

	st, err := shard.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksProcessed != 1 {
		t.Fatalf("status over HTTP: %+v", st)
	}
	parsed, err := shard.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := parsed.Counter("enld_lake_tasks_total", map[string]string{"outcome": "ok"}); !ok || v != 1 {
		t.Fatalf("scraped counter = %v, %v", v, ok)
	}
}

func TestHTTPClusterEndToEnd(t *testing.T) {
	_, srv0 := newHTTPWorker(t, "h0")
	_, srv1 := newHTTPWorker(t, "h1")
	coord, err := New([]Shard{
		NewHTTPShard("h0", srv0.URL),
		NewHTTPShard("h1", srv1.URL),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetObs(obs.NewRegistry())

	reports := runTasks(t, coord, 16)
	if len(reports) != 16 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, rep := range reports {
		if rep.Err != nil || rep.Rerouted {
			t.Fatalf("task %d: %+v", rep.TaskID, rep)
		}
		if want := coord.Place(rep.TaskID); rep.Shard != want {
			t.Fatalf("task %d on %s, owner %s", rep.TaskID, rep.Shard, want)
		}
	}
	var buf bytes.Buffer
	if err := coord.WriteMetrics(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	merged, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged HTTP exposition failed conformance parse: %v", err)
	}
	if v, ok := merged.Counter("enld_lake_tasks_total", map[string]string{"outcome": "ok"}); !ok || v != 16 {
		t.Fatalf("merged ok = %v, %v; want 16", v, ok)
	}
	st := coord.Status(context.Background())
	if st.Aggregate.TasksProcessed != 16 || st.ShardsUp != 2 {
		t.Fatalf("cluster status over HTTP: %+v", st)
	}
}

// TestHTTPShardDownReroutes kills one worker's HTTP listener mid-cluster
// and checks its keys reroute to the survivor with explicit accounting.
func TestHTTPShardDownReroutes(t *testing.T) {
	_, srv0 := newHTTPWorker(t, "h0")
	_, srv1 := newHTTPWorker(t, "h1")
	coord, err := New([]Shard{
		NewHTTPShard("h0", srv0.URL),
		NewHTTPShard("h1", srv1.URL),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetObs(obs.NewRegistry())
	srv0.CloseClientConnections()
	srv0.Close()

	reports := runTasks(t, coord, 12)
	if len(reports) != 12 {
		t.Fatalf("got %d reports", len(reports))
	}
	rerouted := 0
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("task %d failed: %v", rep.TaskID, rep.Err)
		}
		if rep.Shard != "h1" {
			t.Fatalf("task %d served by %s with h0 down", rep.TaskID, rep.Shard)
		}
		if coord.Place(rep.TaskID) == "h0" {
			if !rep.Rerouted {
				t.Fatalf("task %d owned by dead h0 but not marked rerouted", rep.TaskID)
			}
			rerouted++
		} else if rep.Rerouted {
			t.Fatalf("task %d owned by h1 marked rerouted", rep.TaskID)
		}
	}
	if rerouted == 0 {
		t.Fatal("no key owned by the dead shard in the sample")
	}
	// Status still renders: the dead shard appears with an error, not a gap.
	st := coord.Status(context.Background())
	if st.ShardsUp != 1 {
		t.Fatalf("shards_up = %d", st.ShardsUp)
	}
	var deadEntry *ShardStatus
	for i := range st.PerShard {
		if st.PerShard[i].Name == "h0" {
			deadEntry = &st.PerShard[i]
		}
	}
	if deadEntry == nil || deadEntry.Error == "" || deadEntry.Status != nil {
		t.Fatalf("dead shard entry: %+v", deadEntry)
	}
	// Merged metrics survive a failed scrape.
	var buf bytes.Buffer
	if err := coord.WriteMetrics(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("partial merged exposition failed conformance parse: %v", err)
	}
}

func TestHTTPDrainEndpoint(t *testing.T) {
	_, srv := newHTTPWorker(t, "h0")
	shard := NewHTTPShard("h0", srv.URL)
	ctx := context.Background()
	if _, err := shard.Submit(ctx, lake.Request{TaskID: 1, Data: testSet(1)}); err != nil {
		t.Fatal(err)
	}
	if err := shard.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Submit(ctx, lake.Request{TaskID: 2, Data: testSet(2)}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("submit after drain over HTTP: %v, want ErrShardDown", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"task_id": 3,`},
		{"trailing", `{"task_id": 3, "data": []} garbage`},
		{"unknown-field", `{"task_id": 3, "data": [], "extra": 1}`},
		{"negative-task", `{"task_id": -5, "data": []}`},
		{"wrong-type", `{"task_id": "three", "data": []}`},
	}
	for _, tc := range cases {
		if _, err := decodeSubmit(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.body)
		}
	}
	if _, err := decodeReport(strings.NewReader(`{"task_id": 1} x`)); err == nil {
		t.Error("report decode accepted trailing garbage")
	}
	if _, err := decodeStatus(strings.NewReader(`[1,2,3]`)); err == nil {
		t.Error("status decode accepted a JSON array")
	}
	// A valid minimal exchange still decodes.
	req, err := decodeSubmit(strings.NewReader(`{"task_id": 3, "data": [{"id": 1, "x": [0.5], "observed": 0, "true": 1}]}`))
	if err != nil || req.TaskID != 3 || len(req.Data) != 1 {
		t.Fatalf("minimal submit rejected: %+v, %v", req, err)
	}
}

// TestInProcessAndHTTPMetricsAgree scrapes the same two shard workers
// through an in-process coordinator (registry snapshots) and through an
// HTTP one (parsed /metrics text): the merged expositions are identical.
func TestInProcessAndHTTPMetricsAgree(t *testing.T) {
	w0, srv0 := newHTTPWorker(t, "h0")
	w1, srv1 := newHTTPWorker(t, "h1")
	local, err := New([]Shard{w0, w1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := New([]Shard{NewHTTPShard("h0", srv0.URL), NewHTTPShard("h1", srv1.URL)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reports := runTasks(t, local, 12); len(reports) != 12 {
		t.Fatalf("got %d reports", len(reports))
	}
	var a, b bytes.Buffer
	if err := local.WriteMetrics(context.Background(), &a); err != nil {
		t.Fatal(err)
	}
	if err := remote.WriteMetrics(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("in-process and HTTP merged metrics differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `enld_lake_tasks_total{outcome="ok"} 12`+"\n") {
		t.Fatalf("merged metrics miss the 12 served tasks:\n%s", a.String())
	}
}

// TestHTTPShardGetRejectsOversizedReply: a reply one byte over the cap is
// an error, not a silently truncated body.
func TestHTTPShardGetRejectsOversizedReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 17)))
	}))
	defer srv.Close()
	shard := NewHTTPShard("big", srv.URL)
	if body, err := shard.get(context.Background(), "/metrics", 16); err == nil {
		t.Fatalf("17-byte reply under a 16-byte cap returned %q and no error", body)
	}
	if body, err := shard.get(context.Background(), "/metrics", 17); err != nil || len(body) != 17 {
		t.Fatalf("17-byte reply under a 17-byte cap: %q, %v", body, err)
	}
}
