package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"enld/internal/baselines"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/fault"
	"enld/internal/lake"
	"enld/internal/lake/cluster"
	"enld/internal/lake/seglog"
	"enld/internal/metrics"
	"enld/internal/obs"
)

// clusterFlags carries the flag values the sharded modes need, resolved in
// main. Single-node-only features (-resume from recorded detection
// outcomes, inventory-backed platform snapshots) do not apply here: each
// shard keeps its own books.
type clusterFlags struct {
	shards      int    // -shards: in-process cluster size
	shardAddr   string // -shard-addr: serve one HTTP shard worker
	shardName   string // -shard-name: this worker's cluster-wide name
	coordinator string // -coordinator: comma-separated shard base URLs

	method     string
	seed       uint64
	workers    int
	keepRecent int
	interval   time.Duration
	timeout    time.Duration
	httpAddr   string
	linger     time.Duration
	storeKind  string
	storeDir   string

	policy   lake.Policy
	fallback bool

	brownout bool

	faultOn  bool
	faultCfg fault.Config
}

// clusterMode reports whether any sharded mode is requested.
func (fl clusterFlags) clusterMode() bool {
	return fl.shards > 0 || fl.shardAddr != "" || fl.coordinator != ""
}

// shardDetector resolves the run's method against the workbench and wraps it
// in this shard's own fault-injection stream (seed offset by the shard index
// so shards do not fail in lockstep).
func shardDetector(wb *experiments.Workbench, fl clusterFlags, shard int) (detect.Detector, error) {
	var det detect.Detector
	for _, d := range experiments.AllMethods(wb, fl.seed+3) {
		if d.Name() == fl.method {
			det = d
			break
		}
	}
	if det == nil {
		return nil, fmt.Errorf("unknown method %q", fl.method)
	}
	if fl.faultOn {
		cfg := fl.faultCfg
		cfg.Seed += uint64(shard) * 101
		inj, err := fault.New(det, cfg)
		if err != nil {
			return nil, err
		}
		det = inj
	}
	return det, nil
}

// newShardWorker builds one fully wired shard: its own registry, policy,
// optional brownout ladder and optional seglog inventory subdirectory
// (storeDir/<name>), so shards never contend on storage.
func newShardWorker(wb *experiments.Workbench, fl clusterFlags, shard int, name string) (*cluster.ShardWorker, error) {
	det, err := shardDetector(wb, fl, shard)
	if err != nil {
		return nil, err
	}
	policy := fl.policy
	if fl.fallback {
		policy.Fallback = baselines.Default{Model: wb.Platform.Model}
	}
	wcfg := cluster.WorkerConfig{
		Name:       name,
		Workers:    fl.workers,
		Policy:     policy,
		Registry:   obs.NewRegistry(),
		KeepRecent: fl.keepRecent,
	}
	if fl.brownout {
		ladder := experiments.BrownoutLadder(wb)
		ladder[0].Detector = det
		wcfg.Ladder = ladder
	}
	if fl.storeKind == "seglog" && fl.storeDir != "" {
		lg, err := seglog.Open(fmt.Sprintf("%s/%s", fl.storeDir, name), seglog.Options{})
		if err != nil {
			return nil, err
		}
		lg.SetObs(wcfg.Registry)
		wcfg.Inventory = lg
	}
	return cluster.NewShardWorker(det, wcfg)
}

// runShardServer is -shard-addr mode: this process is one worker of a
// cluster whose coordinator lives elsewhere. It serves /submit, /statusz,
// /metrics, /drain and /healthz until interrupted, then drains.
func runShardServer(ctx context.Context, wb *experiments.Workbench, fl clusterFlags) error {
	name := fl.shardName
	if name == "" {
		name = fl.shardAddr
	}
	w, err := newShardWorker(wb, fl, 0, name)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              fl.shardAddr,
		Handler:           w.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("shard worker %s serving on %s (Ctrl-C to drain and exit)\n", name, fl.shardAddr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "lakesim: shard shutdown:", err)
	}
	if err := w.Drain(shutCtx); err != nil {
		return err
	}
	st, err := w.Status(context.Background())
	if err == nil {
		fmt.Printf("shard %s drained: processed=%d failed=%d shed=%d abandoned=%d\n",
			name, st.TasksProcessed, st.TasksFailed, st.TasksShed, st.TasksAbandoned)
	}
	return nil
}

// runCluster drives the arrival stream through a coordinator — over
// in-process workers (-shards N) or remote HTTP shards (-coordinator). The
// merged scatter/gather /statusz and /metrics views serve on -http.
func runCluster(ctx context.Context, wb *experiments.Workbench, reg *obs.Registry, fl clusterFlags) error {
	var shards []cluster.Shard
	var workers []*cluster.ShardWorker
	switch {
	case fl.coordinator != "":
		for _, u := range strings.Split(fl.coordinator, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				return fmt.Errorf("empty shard URL in -coordinator list %q", fl.coordinator)
			}
			shards = append(shards, cluster.NewHTTPShard(u, u))
		}
		fmt.Printf("coordinator over %d HTTP shard(s)\n", len(shards))
	default:
		for i := 0; i < fl.shards; i++ {
			w, err := newShardWorker(wb, fl, i, fmt.Sprintf("shard-%d", i))
			if err != nil {
				return err
			}
			workers = append(workers, w)
			shards = append(shards, w)
		}
		defer func() {
			drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for _, w := range workers {
				_ = w.Drain(drainCtx)
			}
		}()
		fmt.Printf("in-process cluster: %d shard(s), %d worker(s) each\n", len(shards), fl.workers)
	}

	policy := fl.policy
	coord, err := cluster.New(shards, cluster.Options{Policy: policy})
	if err != nil {
		return err
	}
	coord.SetObs(reg)

	if fl.httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/statusz", coord.StatusHandler())
		mux.Handle("/metrics", coord.MetricsHandler())
		srv := &http.Server{
			Addr:              fl.httpAddr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       time.Minute,
		}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "lakesim: http:", err)
			}
		}()
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutCtx)
		}()
		fmt.Printf("cluster status endpoint: http://%s/statusz\n", fl.httpAddr)
		fmt.Printf("cluster metrics endpoint: http://%s/metrics\n", fl.httpAddr)
	}

	runCtx, cancel := context.WithTimeout(ctx, fl.timeout)
	defer cancel()
	reports := coord.Run(runCtx, lake.Feed(runCtx, wb.Shards, fl.interval))
	summarizeCluster(reports, len(wb.Shards), coord)

	if fl.linger > 0 && fl.httpAddr != "" {
		fmt.Printf("lingering %s for scrapes (Ctrl-C to stop)\n", fl.linger)
		select {
		case <-time.After(fl.linger):
		case <-ctx.Done():
		}
	}
	return nil
}

// summarizeCluster prints per-task lines, the cluster accounting identity
// and the scatter/gather aggregate for a coordinator run.
func summarizeCluster(reports []lake.Report, total int, coord *cluster.Coordinator) {
	var dets []metrics.Detection
	var queued, process time.Duration
	completed, rerouted, shed, abandoned, deadLettered, retries := 0, 0, 0, 0, 0, 0
	for _, rep := range reports {
		retries += rep.Retries
		switch {
		case rep.Shed:
			shed++
			fmt.Printf("task %2d SHED at admission on %s: %v\n", rep.TaskID, rep.Shard, rep.Err)
			continue
		case rep.Abandoned:
			abandoned++
			fmt.Printf("task %2d ABANDONED at shutdown: %v\n", rep.TaskID, rep.Err)
			continue
		case rep.DeadLettered:
			deadLettered++
			fmt.Printf("task %2d DEAD-LETTERED: %v\n", rep.TaskID, rep.Err)
			continue
		case rep.Rerouted:
			rerouted++
		default:
			completed++
		}
		dets = append(dets, rep.Detection)
		queued += rep.Queued
		process += rep.Process
		tag := " shard=" + rep.Shard
		if rep.Rerouted {
			tag += " REROUTED"
		}
		if rep.Degraded {
			tag += " DEGRADED"
		}
		if rep.Retries > 0 {
			tag += fmt.Sprintf(" (retries=%d)", rep.Retries)
		}
		fmt.Printf("task %2d: size=%4d queued=%-8s process=%-8s P=%.4f R=%.4f F1=%.4f%s\n",
			rep.TaskID, rep.Size,
			rep.Queued.Round(time.Millisecond), rep.Process.Round(time.Millisecond),
			rep.Detection.Precision, rep.Detection.Recall, rep.Detection.F1, tag)
	}

	lost := total - completed - rerouted - shed - abandoned - deadLettered
	fmt.Printf("\ncluster accounting: offered=%d completed=%d rerouted=%d shed=%d abandoned=%d dead_letter=%d lost=%d\n",
		total, completed, rerouted, shed, abandoned, deadLettered, lost)
	if retries > 0 {
		fmt.Printf("transient retries consumed: %d\n", retries)
	}

	st := coord.Status(context.Background())
	fmt.Printf("cluster: %d/%d shard(s) up, placement=%s\n", st.ShardsUp, st.Shards, st.Placement)
	for _, sh := range st.PerShard {
		if !sh.Up {
			fmt.Printf("  %s: DOWN (%s)\n", sh.Name, sh.Error)
			continue
		}
		fmt.Printf("  %s: processed=%d failed=%d shed=%d abandoned=%d\n",
			sh.Name, sh.Status.TasksProcessed, sh.Status.TasksFailed, sh.Status.TasksShed, sh.Status.TasksAbandoned)
	}
	if len(dets) == 0 {
		fmt.Println("no tasks completed")
		return
	}
	n := time.Duration(len(dets))
	fmt.Printf("%d tasks (%d dead-lettered): %s, mean queued %s, mean process %s\n",
		len(reports), deadLettered, metrics.AggregateDetections(dets),
		(queued / n).Round(time.Millisecond), (process / n).Round(time.Millisecond))
}
