// Command lakesim runs the data-lake serving simulation: a platform is
// initialized on inventory data, incremental datasets arrive on a paced
// stream, and a worker pool screens each arrival for noisy labels with the
// chosen detector, reporting queueing delay, process time and detection
// quality per task — the deployment scenario of §I and §IV-A.
//
// The simulation can be run under deterministic fault injection (injected
// failures, panics, latency, corrupted shards) with the full resilience
// stack engaged — per-task deadlines, a circuit breaker degrading to the
// default baseline, dead-letter accounting, and crash recovery from the
// segment log, which records every arrival, the platform and each task's
// outcome:
//
//	lakesim -dataset cifar100 -eta 0.2 -workers 2 -interval 100ms
//	lakesim -fail-rate 0.2 -panic-rate 0.05 \
//	        -breaker-threshold 3 -fallback -store-dir /var/lake -resume
//
// The stream can also be served by a sharded cluster
// (internal/lake/cluster): -shards N runs the whole cluster in-process
// behind a rendezvous-hashing coordinator, while -shard-addr and
// -coordinator split worker and coordinator across processes:
//
//	lakesim -shards 4 -store seglog -store-dir /var/lake -http :8080
//	lakesim -shard-addr :9001 -shard-name s0            # worker process
//	lakesim -coordinator http://host:9001,http://host:9002
//
// Every mode stands its stack up through internal/stack. All but
// -shard-addr then run one flow: serve the endpoints, feed the stream,
// summarize.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"enld/internal/lake"
	"enld/internal/lake/cluster"
	"enld/internal/metrics"
	"enld/internal/obs"
	"enld/internal/stack"
)

func main() {
	var cfg stack.Config
	flag.StringVar(&cfg.Preset, "dataset", "cifar100", "workload preset: emnist, cifar100, tinyimagenet")
	flag.Float64Var(&cfg.Eta, "eta", 0.2, "pair-noise rate in [0, 1)")
	flag.StringVar(&cfg.Method, "method", "enld", "default, cl-1, cl-2, topofilter, enld, losstrack, incv, coteaching")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.Float64Var(&cfg.Scale, "scale", 1.0, "dataset size factor")
	flag.IntVar(&cfg.Datasets, "datasets", 0, "incremental dataset count (0 = paper count)")
	flag.IntVar(&cfg.Workers, "workers", 2, "concurrent detection workers")
	var (
		interval = flag.Duration("interval", 50*time.Millisecond, "arrival pacing between datasets")
		timeout  = flag.Duration("timeout", 10*time.Minute, "overall simulation deadline")
		httpAddr = flag.String("http", "", "serve JSON status (/statusz) and Prometheus metrics (/metrics) on this address (e.g. :8080)")

		// Sharded cluster modes (internal/lake/cluster). -shards runs the
		// whole cluster in one process; -shard-addr turns this process into
		// one HTTP worker; -coordinator fronts remote workers. Resume is a
		// single-node feature and does not apply to cluster runs.
		shardAddr   = flag.String("shard-addr", "", "serve this process as one HTTP shard worker on this address (e.g. :9001) until interrupted")
		shardName   = flag.String("shard-name", "", "cluster-wide name of this shard worker (default: the -shard-addr value)")
		coordinator = flag.String("coordinator", "", "comma-separated shard worker base URLs (e.g. http://host:9001,http://host:9002); run as the coordinator over these HTTP shards")

		// Observability.
		obsLedger = flag.String("obs-ledger", "", "append a JSONL ledger of completed spans to this file")
		linger    = flag.Duration("linger", 0, "keep the HTTP endpoints serving this long after the run (for scraping final state)")
	)
	flag.IntVar(&cfg.Shards, "shards", 0, "run the stream through an in-process cluster of this many shard workers behind a rendezvous-hashing coordinator (0 = single service)")
	flag.IntVar(&cfg.KeepRecent, "keep-recent", 0, "recent task reports kept in /statusz (0 = default 20)")

	// Fault injection (internal/fault): deterministic chaos on the chosen
	// detector.
	flag.Float64Var(&cfg.Fault.FailRate, "fail-rate", 0, "probability a detection call fails with an injected error")
	flag.Float64Var(&cfg.Fault.PanicRate, "panic-rate", 0, "probability a detection call panics")
	flag.Float64Var(&cfg.Fault.SlowRate, "slow-rate", 0, "probability a detection call is slowed by -slow-latency")
	flag.DurationVar(&cfg.Fault.Latency, "slow-latency", 200*time.Millisecond, "latency added to slowed calls")
	flag.Float64Var(&cfg.Fault.CorruptRate, "corrupt-rate", 0, "probability a shard's labels are scrambled before detection")
	flag.Uint64Var(&cfg.Fault.Seed, "fault-seed", 42, "seed for the fault-injection decision stream")

	// Resilience policy (internal/lake).
	flag.DurationVar(&cfg.Policy.TaskTimeout, "task-timeout", 0, "per-task detector deadline (0 = none)")
	flag.IntVar(&cfg.Policy.BreakerThreshold, "breaker-threshold", 0, "consecutive failures tripping the circuit breaker (0 = no breaker)")
	flag.DurationVar(&cfg.Policy.BreakerCooldown, "breaker-cooldown", time.Second, "open-breaker cooldown before a half-open probe")
	flag.BoolVar(&cfg.Fallback, "fallback", false, "degrade failed tasks to the default baseline detector")

	// Overload control (internal/lake): bounded admission with
	// deadline-aware shedding, and the brownout degradation ladder.
	flag.IntVar(&cfg.Policy.Admission.QueueDepth, "queue-depth", 0, "admission queue capacity (0 = legacy unbounded backpressure, nothing is shed)")
	flag.DurationVar(&cfg.Policy.Admission.MaxQueueWait, "max-queue-wait", 0, "shed tasks whose predicted queue wait exceeds this (0 = only full-queue shedding; needs -queue-depth)")
	flag.BoolVar(&cfg.Brownout, "brownout", false, "serve each task at full ENLD or at the fallback rung, picked at admission by its predicted queue wait (needs -queue-depth and -max-queue-wait)")

	// Crash recovery.
	flag.StringVar(&cfg.PlatformFile, "platform", "", "platform snapshot file: loaded if present (skipping setup), saved after setup otherwise; ignored when -store-dir is set")
	flag.BoolVar(&cfg.Resume, "resume", false, "skip task IDs whose outcome the -store-dir segment log already records (needs -store seglog)")

	// Durable inventory storage (internal/lake/seglog): every arriving
	// dataset, the platform snapshot and each task's outcome go through the
	// segment log, so accepted work survives a crash.
	flag.StringVar(&cfg.Store, "store", "seglog", "inventory storage backend: seglog (crash-safe segment log), memory")
	flag.StringVar(&cfg.StoreDir, "store-dir", "", "directory for durable inventory storage (empty = durable storage off unless -store=memory)")
	flag.Parse()

	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "lakesim:", msg)
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "lakesim:", err)
		os.Exit(1)
	}
	if cfg.Brownout {
		if err := cfg.Policy.Admission.ValidateBrownout(); err != nil {
			usage("-brownout: " + err.Error())
		}
	}
	if cfg.Store == "seglog" && cfg.StoreDir == "" {
		cfg.Store = ""
	}
	// A single node keeps the platform and each task's outcome in its store.
	cfg.Journal = true
	switch {
	case *shardAddr != "":
		cfg.Shards, cfg.ShardName = 1, *shardName
		if cfg.ShardName == "" {
			cfg.ShardName = *shardAddr
		}
	case *coordinator != "":
		cfg.Shards = 0
		for _, u := range strings.Split(*coordinator, ",") {
			if u = strings.TrimSpace(u); u == "" {
				usage(fmt.Sprintf("empty shard URL in -coordinator list %q", *coordinator))
			}
			cfg.Remote = append(cfg.Remote, u)
		}
	}
	clustered := cfg.Shards > 0 || len(cfg.Remote) > 0
	if clustered && cfg.Resume {
		fmt.Fprintln(os.Stderr, "lakesim: -resume is a single-node feature; ignored in cluster mode")
		cfg.Resume = false
	}
	if cfg.Resume && cfg.Store != "seglog" {
		usage("-resume needs -store seglog -store-dir DIR: the segment log records which tasks are done")
	}

	// An interrupt (Ctrl-C) or SIGTERM cancels the simulation and shuts the
	// endpoints down gracefully instead of killing mid-task.
	rootCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One registry observes the whole run: platform setup, every detection
	// task and the lake service (or the coordinator) all report into it.
	cfg.Registry = obs.NewRegistry()
	if *obsLedger != "" {
		f, err := os.OpenFile(*obsLedger, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(fmt.Errorf("obs-ledger: %w", err))
		}
		defer f.Close()
		cfg.Registry.SetSpanLedger(f)
	}

	st, err := stack.Build(cfg)
	if err != nil {
		fail(err)
	}
	defer st.Close()

	if *shardAddr != "" {
		if err := serveShard(rootCtx, st.Workers[0], *shardAddr); err != nil {
			fail(err)
		}
		return
	}
	if *httpAddr != "" {
		// The write timeout leaves room for a cluster's scatter/gather scrape.
		shutdown, err := serve(*httpAddr, st.Handler(), 30*time.Second)
		if err != nil {
			fail(err)
		}
		defer shutdown()
		fmt.Printf("status endpoint: http://%s/statusz\n", *httpAddr)
		fmt.Printf("metrics endpoint: http://%s/metrics\n", *httpAddr)
	}

	ctx, cancel := context.WithTimeout(rootCtx, *timeout)
	defer cancel()
	reports := st.Submitter().Run(ctx, lake.Feed(ctx, st.Workbench.Shards, *interval))
	summarize(st, reports)
	st.PrintStats()
	if *linger > 0 && *httpAddr != "" {
		// Hold the endpoints open so a scraper can read the run's final
		// state; an interrupt ends the wait early.
		fmt.Printf("lingering %s for scrapes (Ctrl-C to stop)\n", *linger)
		select {
		case <-time.After(*linger):
		case <-rootCtx.Done():
		}
	}
}

// serve runs an HTTP server on addr until the returned shutdown is called,
// which drains in-flight requests instead of dropping them. Explicit
// timeouts keep a slow or stalled client from pinning a connection (bare
// ListenAndServe has none); rwTimeout 0 leaves reads and writes unbounded.
func serve(addr string, h http.Handler, rwTimeout time.Duration) (shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       rwTimeout,
		WriteTimeout:      rwTimeout,
		IdleTimeout:       time.Minute,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lakesim: http:", err)
		}
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lakesim: http shutdown:", err)
		}
	}, nil
}

// serveShard is -shard-addr mode: this process is one worker of a cluster
// whose coordinator lives elsewhere. It serves /submit, /statusz, /metrics,
// /drain and /healthz until interrupted, then drains. /submit holds its
// request until the task is filed, so reads and writes are unbounded.
func serveShard(ctx context.Context, w *cluster.ShardWorker, addr string) error {
	shutdown, err := serve(addr, w.Handler(), 0)
	if err != nil {
		return err
	}
	fmt.Printf("shard worker %s serving on %s (Ctrl-C to drain and exit)\n", w.Name(), addr)
	<-ctx.Done()
	shutdown()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Drain(drainCtx); err != nil {
		return err
	}
	st, _ := w.Status(drainCtx)
	fmt.Printf("shard %s drained: processed=%d failed=%d shed=%d abandoned=%d\n",
		w.Name(), st.TasksProcessed, st.TasksFailed, st.TasksShed, st.TasksAbandoned)
	return nil
}

// summarize prints each task's outcome, the accounting identity (every
// offered task in exactly one class) and the aggregate detection quality of
// the tasks served.
func summarize(st *stack.Stack, reports []lake.Report) {
	var dets []metrics.Detection
	var queued, process time.Duration
	for _, rep := range reports {
		tag := ""
		if rep.Shard != "" {
			tag += " shard=" + rep.Shard
		}
		if rep.Rerouted {
			tag += " REROUTED"
		}
		if rep.Degraded {
			tag += " DEGRADED"
		}
		if rep.Tier != "" && rep.Tier != lake.TierFull {
			tag += " tier=" + rep.Tier
		}
		if rep.Err != nil {
			what := "DEAD-LETTERED"
			if rep.Shed {
				what = "SHED at admission"
			} else if rep.Abandoned {
				what = "ABANDONED at shutdown"
			}
			fmt.Printf("task %2d %s%s: %v\n", rep.TaskID, what, tag, rep.Err)
			continue
		}
		dets = append(dets, rep.Detection)
		queued += rep.Queued
		process += rep.Process
		fmt.Printf("task %2d: size=%4d queued=%-8s process=%-8s P=%.4f R=%.4f F1=%.4f%s\n",
			rep.TaskID, rep.Size,
			rep.Queued.Round(time.Millisecond), rep.Process.Round(time.Millisecond),
			rep.Detection.Precision, rep.Detection.Recall, rep.Detection.F1, tag)
	}

	a := stack.Account(reports, len(st.Workbench.Shards), st.Skipped)
	if st.Coordinator != nil {
		fmt.Printf("\ncluster accounting: %s\n", a)
		cs := st.Coordinator.Status(context.Background())
		fmt.Printf("cluster: %d/%d shard(s) up, placement=%s\n", cs.ShardsUp, cs.Shards, cs.Placement)
		for _, sh := range cs.PerShard {
			if !sh.Up {
				fmt.Printf("  %s: DOWN (%s)\n", sh.Name, sh.Error)
				continue
			}
			fmt.Printf("  %s: processed=%d failed=%d shed=%d abandoned=%d\n",
				sh.Name, sh.Status.TasksProcessed, sh.Status.TasksFailed, sh.Status.TasksShed, sh.Status.TasksAbandoned)
		}
	} else {
		fmt.Printf("\naccounting: %d tasks = %d succeeded + %d degraded + %d dead-lettered + %d shed + %d abandoned + %d skipped (recovered)",
			a.Offered, a.Completed-a.Degraded, a.Degraded, a.DeadLetter, a.Shed, a.Abandoned, a.Skipped)
		if a.Lost > 0 {
			fmt.Printf(" — %d LOST (cancelled before processing)", a.Lost)
		}
		fmt.Println()
		if ov := st.Service.OverloadStatus(); ov.QueueCapacity > 0 {
			fmt.Printf("overload: shed=%d abandoned=%d ewma_task=%.0fms\n", ov.TasksShed, ov.TasksAbandoned, ov.EWMATaskSeconds*1000)
		}
		if b := st.Service.Breaker(); b != nil {
			fmt.Printf("breaker: state=%s trips=%d\n", b.State(), b.Trips())
		}
	}
	if len(dets) == 0 {
		fmt.Println("no tasks completed")
		return
	}
	n := time.Duration(len(dets))
	fmt.Printf("%d tasks (%d dead-lettered): %s, mean queued %s, mean process %s\n",
		len(reports), a.DeadLetter, metrics.AggregateDetections(dets),
		(queued / n).Round(time.Millisecond), (process / n).Round(time.Millisecond))
}
