package stack

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"enld/internal/fault"
	"enld/internal/lake"
)

// small is the cheapest real stack: a tiny emnist platform (setup takes
// tens of milliseconds) serving the default detector.
func small(t *testing.T) Config {
	t.Helper()
	return Config{
		Preset: "emnist", Eta: 0.2, Scale: 0.1, Seed: 1, Datasets: 3,
		Method: "default", Workers: 1,
		Stdout: io.Discard, Stderr: io.Discard,
	}
}

// run builds cfg, feeds it the workbench's shards and closes it.
func run(t *testing.T, cfg Config) (*Stack, []lake.Report) {
	t.Helper()
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reports := st.Submitter().Run(ctx, lake.Feed(ctx, st.Workbench.Shards, 0))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return st, reports
}

func TestAccount(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name             string
		reports          []lake.Report
		offered, skipped int
		want             Accounting
	}{
		{name: "empty run", want: Accounting{}},
		{
			name:    "every class once",
			offered: 7,
			reports: []lake.Report{
				{},
				{Degraded: true},
				{Rerouted: true},
				{Rerouted: true, Degraded: true},
				{Shed: true, Err: boom},
				{Abandoned: true, Err: boom},
				{DeadLettered: true, Err: boom},
			},
			want: Accounting{Offered: 7, Completed: 2, Degraded: 1, Rerouted: 2, Shed: 1, Abandoned: 1, DeadLetter: 1},
		},
		{
			// An error without a class flag still fails the task.
			name:    "bare error dead-letters",
			offered: 1,
			reports: []lake.Report{{Err: boom}},
			want:    Accounting{Offered: 1, DeadLetter: 1},
		},
		{
			name:    "resume skips are not lost",
			offered: 5, skipped: 3,
			reports: []lake.Report{{}, {}},
			want:    Accounting{Offered: 5, Skipped: 3, Completed: 2},
		},
		{
			name:    "a missing report is lost",
			offered: 4, skipped: 1,
			reports: []lake.Report{{}, {Shed: true, Err: boom}},
			want:    Accounting{Offered: 4, Skipped: 1, Completed: 1, Shed: 1, Lost: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Account(tc.reports, tc.offered, tc.skipped); got != tc.want {
				t.Fatalf("Account = %+v\nwant      %+v", got, tc.want)
			}
		})
	}
	line := Accounting{Offered: 9, Completed: 3, Rerouted: 2, Shed: 1, Abandoned: 1, DeadLetter: 1, Lost: 1}.String()
	if want := "offered=9 completed=3 rerouted=2 shed=1 abandoned=1 dead_letter=1 lost=1"; line != want {
		t.Fatalf("String = %q, want %q", line, want)
	}
}

// TestCheckTierFloors rejects a min_tier_f1 floor on a tier the ladder lacks
// (the SLO would skip it silently) and accepts floors on a subset of rungs.
func TestCheckTierFloors(t *testing.T) {
	ladder := []lake.TierDetector{{Name: lake.TierFull}, {Name: lake.TierFallback}}
	if err := checkTierFloors(map[string]float64{"full": 0.3}, ladder); err != nil {
		t.Fatalf("floor on a present rung rejected: %v", err)
	}
	if err := checkTierFloors(nil, ladder); err != nil {
		t.Fatalf("no floors rejected: %v", err)
	}
	err := checkTierFloors(map[string]float64{"full": 0.3, "ann": 0.3, "fallback": 0.25}, ladder)
	if err == nil || !strings.Contains(err.Error(), `"ann"`) {
		t.Fatalf("floor on a missing rung: err = %v, want one naming \"ann\"", err)
	}
}

// TestTornShardLogWarns cuts a shard's segment log mid-frame, as a crash
// during its last append would leave it: reopening the cluster must drop
// the torn frame and say so, as a single node does.
func TestTornShardLogWarns(t *testing.T) {
	cfg := small(t)
	cfg.Shards, cfg.Store, cfg.StoreDir = 2, "seglog", t.TempDir()
	if _, reports := run(t, cfg); len(reports) != cfg.Datasets {
		t.Fatalf("%d reports for %d datasets", len(reports), cfg.Datasets)
	}

	// Tear the newest segment of the shard that stored the most.
	var seg string
	var size int64
	for _, shard := range []string{"shard-0", "shard-1"} {
		segs, err := filepath.Glob(filepath.Join(cfg.StoreDir, shard, "seg-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no %s segments (err %v)", shard, err)
		}
		sort.Strings(segs)
		fi, err := os.Stat(segs[len(segs)-1])
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > size {
			seg, size = segs[len(segs)-1], fi.Size()
		}
	}
	if err := os.Truncate(seg, size-7); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Base(filepath.Dir(seg))

	var stderr strings.Builder
	cfg.Stderr = &stderr
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := stderr.String(); strings.Count(got, "storage recovery dropped") != 1 || !strings.Contains(got, torn) {
		t.Fatalf("stderr = %q, want one torn-tail warning naming %s", got, torn)
	}
}

// TestClusterMemoryStore gives every shard its own in-memory inventory, as
// a single node gets one.
func TestClusterMemoryStore(t *testing.T) {
	cfg := small(t)
	cfg.Shards, cfg.Store = 2, "memory"
	st, reports := run(t, cfg)
	if a := Account(reports, cfg.Datasets, 0); a.Lost != 0 || a.Completed+a.Rerouted != cfg.Datasets {
		t.Fatalf("accounting %+v", a)
	}
	stored := 0
	for _, w := range st.Workers {
		s, err := w.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if s.Storage == nil || s.Storage.Backend != "memory" {
			t.Fatalf("%s: storage %+v, want a memory inventory", w.Name(), s.Storage)
		}
		stored += s.Storage.Datasets
	}
	if stored != cfg.Datasets {
		t.Fatalf("shards stored %d datasets, want %d", stored, cfg.Datasets)
	}
}

// TestJournalResume runs a single node on a journal store, then rebuilds
// it with Resume: the platform comes back from the store without setup, and
// every recorded task is skipped rather than lost.
func TestJournalResume(t *testing.T) {
	cfg := small(t)
	cfg.Store, cfg.StoreDir, cfg.Journal = "seglog", t.TempDir(), true
	if _, reports := run(t, cfg); len(reports) != cfg.Datasets {
		t.Fatalf("%d reports for %d datasets", len(reports), cfg.Datasets)
	}

	var stdout strings.Builder
	cfg.Stdout, cfg.Resume = &stdout, true
	st, reports := run(t, cfg)
	if !strings.Contains(stdout.String(), "platform restored from inventory") {
		t.Fatalf("platform not restored:\n%s", stdout.String())
	}
	if st.Skipped != cfg.Datasets || len(reports) != 0 {
		t.Fatalf("skipped %d with %d reports, want %d skipped and none run", st.Skipped, len(reports), cfg.Datasets)
	}
	if a := Account(reports, cfg.Datasets, st.Skipped); a.Lost != 0 {
		t.Fatalf("resumed run lost %d task(s)", a.Lost)
	}
}

// TestBuildRejects refuses configs no stack can serve.
func TestBuildRejects(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"unknown method":         func(c *Config) { c.Method = "nope" },
		"unknown store":          func(c *Config) { c.Store = "tape" },
		"seglog without dir":     func(c *Config) { c.Store = "seglog" },
		"resume without journal": func(c *Config) { c.Resume = true },
		"remote and shards": func(c *Config) {
			c.Shards, c.Remote = 1, []string{"http://127.0.0.1:1"}
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := small(t)
			mutate(&cfg)
			if st, err := Build(cfg); err == nil {
				st.Close()
				t.Fatal("Build succeeded")
			}
		})
	}
}

// TestUnknownMethodRejectedBeforeSetup: an unknown method fails Build
// before the platform is set up, so nothing is trained for it.
func TestUnknownMethodRejectedBeforeSetup(t *testing.T) {
	cfg := small(t)
	cfg.Method = "nope"
	var stdout strings.Builder
	cfg.Stdout = &stdout
	if st, err := Build(cfg); err == nil {
		st.Close()
		t.Fatal("Build succeeded")
	} else if !strings.Contains(err.Error(), `unknown method "nope"`) {
		t.Fatalf("error %q does not name the method", err)
	}
	if strings.Contains(stdout.String(), "platform ready") {
		t.Fatalf("platform set up before the method was checked:\n%s", stdout.String())
	}
}

// get fetches path from h and returns the body.
func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestSingleNodeUnderChaos builds the single node with every serving layer
// on (fault injection, breaker, fallback, bounded admission and
// the brownout ladder) and checks that its endpoints and its final stats
// report the run it served.
func TestSingleNodeUnderChaos(t *testing.T) {
	cfg := small(t)
	cfg.Store = "memory"
	cfg.Fault = fault.Config{Seed: 7, FailRate: 0.5}
	cfg.Policy = lake.Policy{
		BreakerThreshold: 2, BreakerCooldown: time.Second,
		Admission: lake.AdmissionConfig{QueueDepth: 8, MaxQueueWait: time.Second},
	}
	cfg.Fallback, cfg.Brownout = true, true
	cfg.TierFloors = map[string]float64{lake.TierFull: 0}
	var stdout strings.Builder
	cfg.Stdout = &stdout
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	reports := st.Submitter().Run(ctx, lake.Feed(ctx, st.Workbench.Shards, 0))
	if a := Account(reports, cfg.Datasets, 0); a.Lost != 0 || a.DeadLetter != 0 {
		t.Fatalf("accounting %+v: the fallback must catch every failure", a)
	}

	var status lake.Status
	if err := json.Unmarshal([]byte(get(t, st.Handler(), "/statusz")), &status); err != nil {
		t.Fatal(err)
	}
	if status.TasksProcessed != cfg.Datasets || status.Breaker == nil || status.Storage == nil || status.Overload == nil {
		t.Fatalf("/statusz %+v: want %d tasks with breaker, storage and overload sections", status, cfg.Datasets)
	}
	var written bytes.Buffer
	if err := st.WriteMetrics(ctx, &written); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"enld_lake_tasks_total", "enld_lake_tier_tasks_total", "enld_lake_breaker_transitions_total"} {
		if !strings.Contains(get(t, st.Handler(), "/metrics"), "# TYPE "+family+" ") || !strings.Contains(written.String(), "# TYPE "+family+" ") {
			t.Errorf("family %s missing from /metrics or WriteMetrics", family)
		}
	}

	st.PrintStats()
	for _, line := range []string{"fault injection on: fail=0.50", "brownout on: 2-tier ladder", "admission: queue depth 8", "storage: memory backend", "faults injected: calls="} {
		if !strings.Contains(stdout.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, stdout.String())
		}
	}
}

// TestRemoteCoordinator puts a coordinator over a shard worker served by
// another stack over HTTP, the two-process lakesim split, and checks the
// worker's platform file round trip on the way.
func TestRemoteCoordinator(t *testing.T) {
	worker := small(t)
	worker.Shards, worker.ShardName = 1, "s0"
	worker.PlatformFile = filepath.Join(t.TempDir(), "platform.snap")
	var stdout strings.Builder
	worker.Stdout = &stdout
	ws, err := Build(worker)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if !strings.Contains(stdout.String(), "platform saved to "+worker.PlatformFile) {
		t.Fatalf("platform not saved:\n%s", stdout.String())
	}
	srv := httptest.NewServer(ws.Workers[0].Handler())
	defer srv.Close()

	cfg := small(t)
	cfg.Remote = []string{srv.URL}
	st, reports := run(t, cfg)
	if a := Account(reports, cfg.Datasets, 0); a.Completed != cfg.Datasets {
		t.Fatalf("accounting %+v", a)
	}
	for _, rep := range reports {
		if rep.Shard != srv.URL {
			t.Fatalf("task %d served by %q, want %q", rep.TaskID, rep.Shard, srv.URL)
		}
	}
	if body := get(t, st.Handler(), "/metrics"); !strings.Contains(body, "enld_lake_tasks_total") {
		t.Fatalf("merged /metrics lacks the shard's families:\n%s", body)
	}

	stdout.Reset()
	again, err := Build(worker)
	if err != nil {
		t.Fatal(err)
	}
	again.Close()
	if !strings.Contains(stdout.String(), "platform restored from "+worker.PlatformFile) {
		t.Fatalf("platform not restored:\n%s", stdout.String())
	}
}

// TestRemoteBuildsOnlyTheFeed: a coordinator over remote shards sets up no
// platform, yet feeds datasets byte-identical to a local build's for the
// same seed.
func TestRemoteBuildsOnlyTheFeed(t *testing.T) {
	local, err := Build(small(t))
	if err != nil {
		t.Fatal(err)
	}
	local.Close()

	cfg := small(t)
	cfg.Remote = []string{"http://127.0.0.1:1"} // never dialled: nothing is submitted
	var stdout strings.Builder
	cfg.Stdout = &stdout
	remote, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if remote.Workbench.Platform != nil || strings.Contains(stdout.String(), "platform") {
		t.Fatalf("the coordinator set up a platform:\n%s", stdout.String())
	}
	if got, want := gobBytes(t, remote.Workbench.Shards), gobBytes(t, local.Workbench.Shards); !bytes.Equal(got, want) {
		t.Fatal("the coordinator's feed differs from a local build's")
	}
}

// gobBytes encodes v with encoding/gob.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
