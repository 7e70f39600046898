package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"enld/internal/lake"
	"enld/internal/obs"
)

// ShardStatus is one shard's slice of the cluster status view.
type ShardStatus struct {
	Name string `json:"name"`
	// Up mirrors the coordinator-side breaker: false means submissions are
	// currently routing around this shard.
	Up bool `json:"up"`
	// Error is why the status scrape failed, when it did; a down shard
	// still appears in the view rather than vanishing from it.
	Error  string       `json:"error,omitempty"`
	Status *lake.Status `json:"status,omitempty"`
}

// ClusterStatus is the scatter/gather /statusz document: every shard's own
// status plus a cluster-wide aggregate.
type ClusterStatus struct {
	Shards    int    `json:"shards"`
	ShardsUp  int    `json:"shards_up"`
	Placement string `json:"placement"`
	// Aggregate merges the per-shard statuses: counters are summed, the
	// mean columns are weighted by each shard's completed-task count, and
	// Recent interleaves the newest reports across shards (each stamped
	// with its shard name).
	Aggregate lake.Status   `json:"aggregate"`
	PerShard  []ShardStatus `json:"per_shard"`
}

// Status gathers every shard's /statusz concurrently and merges them. A
// shard whose scrape fails contributes an error entry, never a gap.
func (c *Coordinator) Status(ctx context.Context) ClusterStatus {
	out := ClusterStatus{
		Shards:    len(c.shards),
		Placement: "rendezvous-hrw",
		PerShard:  make([]ShardStatus, len(c.shards)),
	}
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			entry := ShardStatus{Name: sh.Name(), Up: c.breakers[i].State() == lake.BreakerClosed}
			st, err := sh.Status(ctx)
			if err != nil {
				entry.Error = err.Error()
			} else {
				entry.Status = &st
			}
			out.PerShard[i] = entry
		}(i, sh)
	}
	wg.Wait()
	sort.Slice(out.PerShard, func(i, j int) bool { return out.PerShard[i].Name < out.PerShard[j].Name })
	for _, entry := range out.PerShard {
		if entry.Up {
			out.ShardsUp++
		}
	}
	out.Aggregate = mergeStatuses(out.PerShard)
	return out
}

// mergeStatuses folds per-shard statuses into one cluster aggregate.
func mergeStatuses(shards []ShardStatus) lake.Status {
	var agg lake.Status
	var f1Sum, procSum, queueSum float64
	var okTotal int
	for _, entry := range shards {
		st := entry.Status
		if st == nil {
			continue
		}
		agg.StoreSamples += st.StoreSamples
		agg.TasksProcessed += st.TasksProcessed
		agg.TasksFailed += st.TasksFailed
		agg.TasksDegraded += st.TasksDegraded
		agg.TasksDeadLetter += st.TasksDeadLetter
		agg.TasksShed += st.TasksShed
		agg.TasksAbandoned += st.TasksAbandoned
		if st.KeepRecent > agg.KeepRecent {
			agg.KeepRecent = st.KeepRecent
		}
		// The per-shard means are averages over tasks that produced scored
		// output; weight them back by that population to aggregate.
		ok := st.TasksProcessed - st.TasksFailed - st.TasksShed - st.TasksAbandoned
		if ok > 0 {
			f1Sum += st.MeanF1 * float64(ok)
			procSum += st.MeanProcessSec * float64(ok)
			queueSum += st.MeanQueuedSec * float64(ok)
			okTotal += ok
		}
		agg.Recent = append(agg.Recent, st.Recent...)
	}
	if okTotal > 0 {
		agg.MeanF1 = f1Sum / float64(okTotal)
		agg.MeanProcessSec = procSum / float64(okTotal)
		agg.MeanQueuedSec = queueSum / float64(okTotal)
	}
	// Newest first across shards, bounded like a single shard's view.
	sort.SliceStable(agg.Recent, func(i, j int) bool { return agg.Recent[i].TaskID > agg.Recent[j].TaskID })
	if agg.KeepRecent > 0 && len(agg.Recent) > agg.KeepRecent {
		agg.Recent = agg.Recent[:agg.KeepRecent]
	}
	agg.StoreName = "cluster"
	return agg
}

// WriteMetrics renders the merged cluster exposition: every shard's
// /metrics parsed and merged (counters and histograms summed, gauges
// labelled shard="name") plus the coordinator's own routing families
// passed through unlabelled. The output round-trips obs.ParseText — the
// same conformance bar the per-shard endpoints meet. A shard whose scrape
// fails is skipped with its name recorded in the error only if every
// scrape fails; partial views stay serveable because a cluster dashboard
// that goes blank when one shard dies is worse than one missing a shard.
func (c *Coordinator) WriteMetrics(ctx context.Context, w io.Writer) error {
	type scrape struct {
		name string
		body []byte
		err  error
	}
	scrapes := make([]scrape, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			body, err := sh.Metrics(ctx)
			scrapes[i] = scrape{name: sh.Name(), body: body, err: err}
		}(i, sh)
	}
	wg.Wait()

	var parts []obs.ShardExposition
	var failed []error
	for _, s := range scrapes {
		if s.err != nil {
			failed = append(failed, fmt.Errorf("shard %s: %w", s.name, s.err))
			continue
		}
		parsed, err := obs.ParseText(bytes.NewReader(s.body))
		if err != nil {
			failed = append(failed, fmt.Errorf("shard %s: %w", s.name, err))
			continue
		}
		parts = append(parts, obs.ShardExposition{Shard: s.name, Parsed: parsed})
	}
	if c.reg != nil {
		var buf bytes.Buffer
		if err := c.reg.WritePrometheus(&buf); err != nil {
			return err
		}
		own, err := obs.ParseText(&buf)
		if err != nil {
			return err
		}
		parts = append(parts, obs.ShardExposition{Parsed: own})
	}
	if len(parts) == 0 {
		if len(failed) > 0 {
			return fmt.Errorf("cluster: every metrics scrape failed: %v", failed)
		}
		return nil
	}
	merged, err := obs.MergeExpositions(parts)
	if err != nil {
		return err
	}
	return obs.WriteParsed(w, merged)
}

// StatusHandler serves the scatter/gather ClusterStatus as JSON — the
// cluster-mode /statusz.
func (c *Coordinator) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.Status(req.Context()))
	})
}

// MetricsHandler serves the merged exposition — the cluster-mode /metrics.
func (c *Coordinator) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		if err := c.WriteMetrics(req.Context(), w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
