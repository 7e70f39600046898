package workload

import (
	"net/http/httptest"
	"testing"

	"enld/internal/lake"
	"enld/internal/obs"
)

// The coordinator satisfies the same Run contract as the service; the
// compile-time pin for lake.Service lives here, the one for
// cluster.Coordinator lives in cmd/loadgen (workload must not import the
// cluster package).
var _ Submitter = (*lake.Service)(nil)

// fakeShardRegistry builds a registry carrying the families summarizeParsed
// requires, as one shard of a cluster would expose them.
func fakeShardRegistry(ok, degraded uint64, latencies ...float64) *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("enld_lake_tasks_total", "t", obs.Label{Key: "outcome", Value: "ok"}).Add(ok)
	reg.Counter("enld_lake_tasks_total", "t", obs.Label{Key: "outcome", Value: "degraded"}).Add(degraded)
	reg.Counter("enld_lake_tasks_total", "t", obs.Label{Key: "outcome", Value: "dead_letter"})
	f1 := reg.Histogram("enld_lake_detection_f1", "f", []float64{0.5, 1}, obs.Label{Key: "tier", Value: "fallback"})
	for i := uint64(0); i < ok; i++ {
		f1.Observe(0.5)
	}
	task := reg.Histogram("enld_lake_task_seconds", "h", obs.DefBuckets)
	queued := reg.Histogram("enld_lake_queued_seconds", "h", obs.DefBuckets)
	for _, v := range latencies {
		task.Observe(v)
		queued.Observe(v / 10)
	}
	return reg
}

// TestSummarizeScrapeMultiEndpoint pins the multi-node scrape path: a
// comma-separated -scrape-url list is scraped endpoint-by-endpoint, merged
// under the cluster rules, and reduced by the same code as a single
// endpoint — counters and histogram counts sum, per-tier task counts
// included.
func TestSummarizeScrapeMultiEndpoint(t *testing.T) {
	srvA := httptest.NewServer(fakeShardRegistry(5, 1, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6).Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(fakeShardRegistry(4, 0, 0.1, 0.2, 0.3, 0.4).Handler())
	defer srvB.Close()

	res, err := SummarizeScrape("multi", srvA.URL+"/metrics,"+srvB.URL+"/metrics", SLO{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Fatalf("merged completed = %d, want 10", res.Completed)
	}
	if res.Outcomes["ok"] != 9 || res.Outcomes["degraded"] != 1 {
		t.Fatalf("merged outcomes = %v", res.Outcomes)
	}
	if res.TaskSeconds.Count != 10 {
		t.Fatalf("merged latency count = %d, want 10", res.TaskSeconds.Count)
	}
	if got := res.TierF1["fallback"].Tasks; got != 9 {
		t.Fatalf("cluster fallback tasks = %d, want the sum over shards (9)", got)
	}
	if res.ThroughputRPS != 1.0 {
		t.Fatalf("throughput = %v, want 1.0", res.ThroughputRPS)
	}

	// A single endpoint still summarizes exactly as before.
	single, err := SummarizeScrape("single", srvA.URL+"/metrics", SLO{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if single.Completed != 6 || single.TaskSeconds.Count != 6 || single.TierF1["fallback"].Tasks != 5 {
		t.Fatalf("single scrape regressed: %+v", single)
	}

	if _, err := SummarizeScrape("bad", srvA.URL+"/metrics,,", SLO{}, 10); err == nil {
		t.Fatal("empty URL in list accepted")
	}
}
