// Command lakesim runs the data-lake serving simulation: a platform is
// initialized on inventory data, incremental datasets arrive on a paced
// stream, and a worker pool screens each arrival for noisy labels with the
// chosen detector, reporting queueing delay, process time and detection
// quality per task — the deployment scenario of §I and §IV-A.
//
// The simulation can be run under deterministic fault injection (transient
// failures, panics, latency, corrupted shards) with the full resilience
// stack engaged — per-task deadlines, retry with backoff, a circuit breaker
// degrading to the default baseline, and crash recovery from the segment
// log, which records every arrival, the platform and each task's outcome:
//
//	lakesim -dataset cifar100 -eta 0.2 -workers 2 -interval 100ms
//	lakesim -fail-rate 0.2 -panic-rate 0.05 -retries 2 \
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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"enld/internal/baselines"
	"enld/internal/core"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/fault"
	"enld/internal/lake"
	"enld/internal/lake/seglog"
	"enld/internal/metrics"
	"enld/internal/nn"
	"enld/internal/obs"
)

// buildWorkbench prepares the workload, restoring the platform from the
// inventory (preferred) or from platformPath when a previous run saved one
// (crash recovery: no setup-phase retraining) and saving it after a fresh
// setup otherwise. A snapshot that fails verification (torn write, bit rot,
// foreign file) is not fatal: the run warns, rebuilds from scratch and
// atomically replaces the bad snapshot, so a corrupt checkpoint degrades to
// a slow start instead of a crash loop.
func buildWorkbench(preset string, eta float64, cfg experiments.Config, platformPath string, inv lake.Inventory) (*experiments.Workbench, error) {
	if inv != nil {
		p, err := core.LoadPlatformInventory(inv)
		switch {
		case err == nil:
			fmt.Println("platform restored from inventory (setup skipped)")
			return experiments.BuildWorkbenchFrom(preset, eta, cfg, p)
		case errors.Is(err, lake.ErrNoSnapshot):
			// Fresh store: fall through to setup.
		default:
			fmt.Fprintf(os.Stderr, "lakesim: platform snapshot rejected, rebuilding from scratch: %v\n", err)
		}
	} else if platformPath != "" {
		if _, err := os.Stat(platformPath); err == nil {
			p, err := core.LoadPlatformFile(platformPath)
			if err == nil {
				fmt.Printf("platform restored from %s (setup skipped)\n", platformPath)
				return experiments.BuildWorkbenchFrom(preset, eta, cfg, p)
			}
			fmt.Fprintf(os.Stderr, "lakesim: platform snapshot rejected, rebuilding from scratch: %v\n", err)
		}
	}
	wb, err := experiments.BuildWorkbench(preset, eta, cfg)
	if err != nil {
		return nil, err
	}
	switch {
	case inv != nil:
		if err := core.SavePlatformInventory(wb.Platform, inv); err != nil {
			return nil, err
		}
		fmt.Println("platform saved to inventory")
	case platformPath != "":
		if err := core.SavePlatformFile(wb.Platform, platformPath); err != nil {
			return nil, err
		}
		fmt.Printf("platform saved to %s\n", platformPath)
	}
	return wb, nil
}

// openInventory builds the inventory storage the flags ask for. A nil
// return (no error) means durable storage is off.
func openInventory(backend, dir string, reg *obs.Registry) (lake.Inventory, error) {
	switch backend {
	case "memory":
		return lake.NewMemInventory(), nil
	case "seglog":
		if dir == "" {
			return nil, nil
		}
		lg, err := seglog.Open(dir, seglog.Options{})
		if err != nil {
			return nil, err
		}
		lg.SetObs(reg)
		if rec := lg.Stats().Recovery; rec.TornTail {
			fmt.Fprintf(os.Stderr, "lakesim: storage recovery dropped %d torn record(s), %d bytes at %s offset %d\n",
				rec.DroppedRecords, rec.DroppedBytes, rec.File, rec.Offset)
		}
		return lg, nil
	default:
		return nil, fmt.Errorf("unknown -store backend %q (want seglog or memory)", backend)
	}
}

func main() {
	var (
		preset   = flag.String("dataset", "cifar100", "workload preset: emnist, cifar100, tinyimagenet")
		eta      = flag.Float64("eta", 0.2, "pair-noise rate in [0, 1)")
		method   = flag.String("method", "enld", "default, cl-1, cl-2, topofilter, enld, losstrack, incv, coteaching")
		seed     = flag.Uint64("seed", 1, "random seed")
		scale    = flag.Float64("scale", 1.0, "dataset size factor")
		datasets = flag.Int("datasets", 0, "incremental dataset count (0 = paper count)")
		workers  = flag.Int("workers", 2, "concurrent detection workers")
		taskW    = flag.Int("task-workers", 1, "data-parallel workers inside each detection task (0 = all cores); per-task results are identical at any count")
		interval = flag.Duration("interval", 50*time.Millisecond, "arrival pacing between datasets")
		timeout  = flag.Duration("timeout", 10*time.Minute, "overall simulation deadline")
		httpAddr = flag.String("http", "", "serve JSON status (/statusz) and Prometheus metrics (/metrics) on this address (e.g. :8080)")

		// Sharded cluster modes (internal/lake/cluster). -shards runs the
		// whole cluster in one process; -shard-addr turns this process into
		// one HTTP worker; -coordinator fronts remote workers. Resume is a
		// single-node feature and does not apply to cluster runs.
		clusterShards = flag.Int("shards", 0, "run the stream through an in-process cluster of this many shard workers behind a rendezvous-hashing coordinator (0 = single service)")
		shardAddr     = flag.String("shard-addr", "", "serve this process as one HTTP shard worker on this address (e.g. :9001) until interrupted")
		shardName     = flag.String("shard-name", "", "cluster-wide name of this shard worker (default: the -shard-addr value)")
		coordinator   = flag.String("coordinator", "", "comma-separated shard worker base URLs (e.g. http://host:9001,http://host:9002); run as the coordinator over these HTTP shards")

		// Observability.
		keepRecent = flag.Int("keep-recent", 0, "recent task reports kept in /statusz (0 = default 20)")
		obsLedger  = flag.String("obs-ledger", "", "append a JSONL ledger of completed spans to this file")
		linger     = flag.Duration("linger", 0, "keep the HTTP endpoints serving this long after the run (for scraping final state)")

		// Fault injection (internal/fault): deterministic chaos on the
		// chosen detector.
		failRate    = flag.Float64("fail-rate", 0, "probability a detection call fails transiently")
		panicRate   = flag.Float64("panic-rate", 0, "probability a detection call panics")
		slowRate    = flag.Float64("slow-rate", 0, "probability a detection call is slowed by -slow-latency")
		slowLatency = flag.Duration("slow-latency", 200*time.Millisecond, "latency added to slowed calls")
		corruptRate = flag.Float64("corrupt-rate", 0, "probability a shard's labels are scrambled before detection")
		faultSeed   = flag.Uint64("fault-seed", 42, "seed for the fault-injection decision stream")

		// Resilience policy (internal/lake).
		taskTimeout = flag.Duration("task-timeout", 0, "per-task detector deadline (0 = none)")
		retries     = flag.Int("retries", 0, "max retries of transient failures per task")
		retryBase   = flag.Duration("retry-base", 20*time.Millisecond, "first retry backoff (doubles per retry)")
		breakerN    = flag.Int("breaker-threshold", 0, "consecutive failures tripping the circuit breaker (0 = no breaker)")
		breakerCool = flag.Duration("breaker-cooldown", time.Second, "open-breaker cooldown before a half-open probe")
		fallback    = flag.Bool("fallback", false, "degrade failed tasks to the default baseline detector")

		// Overload control (internal/lake): bounded admission with
		// deadline-aware shedding, and the brownout degradation ladder.
		queueDepth   = flag.Int("queue-depth", 0, "admission queue capacity (0 = legacy unbounded backpressure, nothing is shed)")
		maxQueueWait = flag.Duration("max-queue-wait", 0, "shed tasks whose predicted queue wait exceeds this (0 = only full-queue shedding; needs -queue-depth)")
		brownoutOn   = flag.Bool("brownout", false, "serve each task at full ENLD or at the fallback rung, picked at admission by its predicted queue wait (needs -queue-depth and -max-queue-wait)")

		// Crash recovery.
		platformPath = flag.String("platform", "", "platform snapshot file: loaded if present (skipping setup), saved after setup otherwise; ignored when -store-dir is set")
		resume       = flag.Bool("resume", false, "skip task IDs whose outcome the -store-dir segment log already records (needs -store seglog)")

		// Durable inventory storage (internal/lake/seglog): every arriving
		// dataset, the platform snapshot and each task's outcome go through
		// the segment log, so accepted work survives a crash.
		storeKind = flag.String("store", "seglog", "inventory storage backend: seglog (crash-safe segment log), memory")
		storeDir  = flag.String("store-dir", "", "directory for durable inventory storage (empty = durable storage off unless -store=memory)")

		// Numerical-health watchdog (internal/nn): NaN/Inf and
		// loss-divergence detection with checkpoint rollback on every
		// training run the platform performs.
		watchdog      = flag.Bool("watchdog", false, "enable the numerical-health watchdog on platform training")
		watchdogEvery = flag.Int("watchdog-every", 0, "batch cadence of gradient/weight scans (0 = default 16)")
		rollbackMax   = flag.Int("rollback-budget", 0, "max checkpoint rollbacks per training run (0 = default 3)")
	)
	flag.Parse()
	admission := lake.AdmissionConfig{QueueDepth: *queueDepth, MaxQueueWait: *maxQueueWait}
	if *brownoutOn {
		if err := admission.ValidateBrownout(); err != nil {
			fmt.Fprintln(os.Stderr, "lakesim: -brownout:", err)
			os.Exit(2)
		}
	}

	// An interrupt (Ctrl-C) or SIGTERM cancels the simulation and shuts the
	// status endpoint down gracefully instead of killing mid-task.
	rootCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One registry observes the whole run: platform setup, every detection
	// task, the lake service and the breaker all report into it, and the
	// /metrics endpoint serves it live.
	reg := obs.NewRegistry()
	if *obsLedger != "" {
		f, err := os.OpenFile(*obsLedger, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lakesim: obs-ledger:", err)
			os.Exit(1)
		}
		defer f.Close()
		reg.SetSpanLedger(f)
	}

	cfg := experiments.Config{Seed: *seed, DataScale: *scale, Shards: *datasets, Workers: *taskW, Obs: reg}
	if *watchdog {
		cfg.Watchdog = nn.WatchdogConfig{
			Enabled:      true,
			Health:       nn.HealthConfig{CheckEvery: *watchdogEvery},
			MaxRollbacks: *rollbackMax,
		}
	}
	fl := clusterFlags{
		shards:      *clusterShards,
		shardAddr:   *shardAddr,
		shardName:   *shardName,
		coordinator: *coordinator,
		method:      *method,
		seed:        *seed,
		workers:     *workers,
		keepRecent:  *keepRecent,
		interval:    *interval,
		timeout:     *timeout,
		httpAddr:    *httpAddr,
		linger:      *linger,
		storeKind:   *storeKind,
		storeDir:    *storeDir,
		fallback:    *fallback,
		brownout:    *brownoutOn,
	}
	if fl.clusterMode() {
		if *storeDir != "" && *storeKind != "seglog" {
			fmt.Fprintf(os.Stderr, "lakesim: cluster modes support only -store seglog (got %q)\n", *storeKind)
			os.Exit(2)
		}
		if *resume {
			fmt.Fprintln(os.Stderr, "lakesim: -resume is a single-node feature; ignored in cluster mode")
		}
		fl.policy = lake.Policy{
			TaskTimeout:      *taskTimeout,
			MaxRetries:       *retries,
			RetryBase:        *retryBase,
			RetrySeed:        *seed,
			BreakerThreshold: *breakerN,
			BreakerCooldown:  *breakerCool,
			Admission:        admission,
		}
		fl.faultOn = *failRate > 0 || *panicRate > 0 || *slowRate > 0 || *corruptRate > 0
		fl.faultCfg = fault.Config{
			Seed:        *faultSeed,
			FailRate:    *failRate,
			PanicRate:   *panicRate,
			SlowRate:    *slowRate,
			Latency:     *slowLatency,
			CorruptRate: *corruptRate,
		}
		wb, err := buildWorkbench(*preset, *eta, cfg, *platformPath, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lakesim:", err)
			os.Exit(1)
		}
		fmt.Printf("platform ready: %s eta=%.2f, inventory=%d, setup=%s\n",
			*preset, *eta, len(wb.Inventory), wb.Platform.SetupTime.Round(time.Millisecond))
		if fl.shardAddr != "" {
			err = runShardServer(rootCtx, wb, fl)
		} else {
			err = runCluster(rootCtx, wb, reg, fl)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lakesim:", err)
			os.Exit(1)
		}
		return
	}

	if *resume && (*storeKind != "seglog" || *storeDir == "") {
		fmt.Fprintln(os.Stderr, "lakesim: -resume needs -store seglog -store-dir DIR: the segment log records which tasks are done")
		os.Exit(2)
	}
	inv, err := openInventory(*storeKind, *storeDir, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakesim: storage:", err)
		os.Exit(1)
	}
	if inv != nil {
		defer inv.Close()
		st := inv.Stats()
		fmt.Printf("storage: %s backend, %d dataset(s), %d segment(s)\n", st.Backend, st.Datasets, st.Segments)
	}

	wb, err := buildWorkbench(*preset, *eta, cfg, *platformPath, inv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakesim:", err)
		os.Exit(1)
	}
	fmt.Printf("platform ready: %s eta=%.2f, inventory=%d, setup=%s\n",
		*preset, *eta, len(wb.Inventory), wb.Platform.SetupTime.Round(time.Millisecond))
	if *watchdog {
		h := wb.Platform.Health
		fmt.Printf("watchdog: checks=%d rollbacks=%d last-unhealthy-epoch=%d checkpoints=%d verify-failures=%d\n",
			h.HealthChecks, h.Rollbacks, h.LastUnhealthyEpoch, h.CheckpointsTaken, h.VerifyFailures)
	}

	// A segment log also records each task's outcome: the tasks a
	// restarted run may skip because their result is already durable.
	outcomes, _ := inv.(*seglog.Log)
	var done map[int]bool
	if *resume {
		done = outcomes.DoneTasks()
		fmt.Printf("resume: %s records %d completed task(s), skipping them\n", *storeDir, len(done))
	}

	tracker := lake.NewStatusTracker(nil)
	tracker.SetKeepRecent(*keepRecent)
	if inv != nil {
		tracker.AttachInventory(inv)
	}
	if *watchdog {
		h := wb.Platform.Health
		tracker.SetTrainingHealth(lake.TrainingHealth{
			HealthChecks:             h.HealthChecks,
			Rollbacks:                h.Rollbacks,
			LastUnhealthyEpoch:       h.LastUnhealthyEpoch,
			CheckpointsTaken:         h.CheckpointsTaken,
			CheckpointVerifyFailures: h.VerifyFailures,
		})
	}
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/statusz", tracker.Handler())
		mux.Handle("/metrics", reg.Handler())
		// Explicit read/write timeouts keep a slow or stalled client from
		// pinning a connection (bare ListenAndServe has none), and Shutdown
		// drains in-flight requests on interrupt instead of dropping them.
		srv := &http.Server{
			Addr:              *httpAddr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      10 * time.Second,
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
			if err := srv.Shutdown(shutCtx); err != nil {
				fmt.Fprintln(os.Stderr, "lakesim: http shutdown:", err)
			}
		}()
		fmt.Printf("status endpoint: http://%s/statusz\n", *httpAddr)
		fmt.Printf("metrics endpoint: http://%s/metrics\n", *httpAddr)
	}

	for _, d := range experiments.AllMethods(wb, *seed+3) {
		if d.Name() != *method {
			continue
		}
		detector := detect.Detector(d)
		var injector *fault.Injector
		if *failRate > 0 || *panicRate > 0 || *slowRate > 0 || *corruptRate > 0 {
			injector, err = fault.New(detector, fault.Config{
				Seed:        *faultSeed,
				FailRate:    *failRate,
				PanicRate:   *panicRate,
				SlowRate:    *slowRate,
				Latency:     *slowLatency,
				CorruptRate: *corruptRate,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "lakesim:", err)
				os.Exit(1)
			}
			detector = injector
			fmt.Printf("fault injection on: fail=%.2f panic=%.2f slow=%.2f corrupt=%.2f seed=%d\n",
				*failRate, *panicRate, *slowRate, *corruptRate, *faultSeed)
		}

		policy := lake.Policy{
			TaskTimeout:      *taskTimeout,
			MaxRetries:       *retries,
			RetryBase:        *retryBase,
			RetrySeed:        *seed,
			BreakerThreshold: *breakerN,
			BreakerCooldown:  *breakerCool,
			Admission:        admission,
		}
		if *fallback {
			policy.Fallback = baselines.Default{Model: wb.Platform.Model}
		}
		svc, err := lake.NewServiceWithPolicy(detector, *workers, policy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lakesim:", err)
			os.Exit(1)
		}
		if *queueDepth > 0 {
			fmt.Printf("admission: queue depth %d, max predicted wait %s\n", *queueDepth, *maxQueueWait)
		}
		if *brownoutOn {
			// The degradation ladder built on this run's platform, with tier 0
			// replaced by the detector under test (fault wrap included) so the
			// brownout degrades from exactly what the run is serving.
			ladder := experiments.BrownoutLadder(wb)
			ladder[0].Detector = detector
			if err := svc.SetBrownout(ladder); err != nil {
				fmt.Fprintln(os.Stderr, "lakesim:", err)
				os.Exit(1)
			}
			fmt.Printf("brownout on: %d-tier ladder, rung picked at admission\n", len(ladder))
		}
		svc.SetObs(reg)
		tracker.AttachService(svc)
		if inv != nil {
			svc.SetInventory(inv)
		}
		if b := svc.Breaker(); b != nil {
			tracker.AttachBreaker(b)
			lake.ObserveBreaker(b, reg)
			b.OnTransition(func(from, to lake.BreakerState) {
				fmt.Printf("breaker: %s -> %s\n", from, to)
			})
		}
		svc.SkipCompleted(done)
		// Record each task's outcome as it completes (not after the run), so
		// a crash mid-run loses at most the in-flight tasks.
		svc.OnReport = func(rep lake.Report) {
			tracker.Record(rep)
			if outcomes == nil || rep.Err != nil || rep.Result == nil {
				return
			}
			note := "lakesim"
			if rep.Degraded {
				note = "lakesim-degraded"
			}
			noisy, clean := rep.Result.SortedIDs()
			if err := outcomes.AppendDetection(rep.TaskID, noisy, clean, note); err != nil {
				fmt.Fprintf(os.Stderr, "lakesim: storage: recording task %d: %v\n", rep.TaskID, err)
			}
		}

		ctx, cancel := context.WithTimeout(rootCtx, *timeout)
		defer cancel()
		reports := svc.Run(ctx, lake.Feed(ctx, wb.Shards, *interval))
		summarize(reports, len(wb.Shards), len(done), svc)
		if inv != nil {
			st := inv.Stats()
			fmt.Printf("storage: %s backend, %d dataset(s) (%d samples), %d segment(s), %d live / %d dead bytes, %d append(s), %d compaction(s)\n",
				st.Backend, st.Datasets, st.Samples, st.Segments, st.LiveBytes, st.DeadBytes, st.Appends, st.Compactions)
		}
		if injector != nil {
			st := injector.Stats()
			fmt.Printf("faults injected: calls=%d failures=%d panics=%d slowdowns=%d corruptions=%d\n",
				st.Calls, st.Failures, st.Panics, st.Slowdowns, st.Corruptions)
		}
		if *linger > 0 && *httpAddr != "" {
			// Hold the endpoints open so a scraper can read the run's final
			// state; an interrupt ends the wait early.
			fmt.Printf("lingering %s for scrapes (Ctrl-C to stop)\n", *linger)
			select {
			case <-time.After(*linger):
			case <-rootCtx.Done():
			}
		}
		return
	}
	fmt.Fprintf(os.Stderr, "lakesim: unknown method %q\n", *method)
	os.Exit(2)
}

func summarize(reports []lake.Report, total, skipped int, svc *lake.Service) {
	breaker := svc.Breaker()
	var dets []metrics.Detection
	var queued, process time.Duration
	succeeded, degraded, deadLettered, shed, abandoned, retries := 0, 0, 0, 0, 0, 0
	for _, rep := range reports {
		retries += rep.Retries
		switch {
		case rep.Shed:
			shed++
			fmt.Printf("task %2d SHED at admission: %v\n", rep.TaskID, rep.Err)
			continue
		case rep.Abandoned:
			abandoned++
			fmt.Printf("task %2d ABANDONED at shutdown: %v\n", rep.TaskID, rep.Err)
			continue
		case rep.DeadLettered:
			deadLettered++
			fmt.Printf("task %2d DEAD-LETTERED after %d retries: %v\n", rep.TaskID, rep.Retries, rep.Err)
			continue
		case rep.Err != nil:
			deadLettered++
			fmt.Printf("task %2d FAILED: %v\n", rep.TaskID, rep.Err)
			continue
		case rep.Degraded:
			degraded++
		default:
			succeeded++
		}
		dets = append(dets, rep.Detection)
		queued += rep.Queued
		process += rep.Process
		tag := ""
		if rep.Degraded {
			tag = " DEGRADED"
		}
		if rep.Tier != "" && rep.Tier != lake.TierFull {
			tag += " tier=" + rep.Tier
		}
		if rep.Retries > 0 {
			tag += fmt.Sprintf(" (retries=%d)", rep.Retries)
		}
		fmt.Printf("task %2d: size=%4d queued=%-8s process=%-8s P=%.4f R=%.4f F1=%.4f%s\n",
			rep.TaskID, rep.Size,
			rep.Queued.Round(time.Millisecond), rep.Process.Round(time.Millisecond),
			rep.Detection.Precision, rep.Detection.Recall, rep.Detection.F1, tag)
	}

	fmt.Printf("\naccounting: %d tasks = %d succeeded + %d degraded + %d dead-lettered + %d shed + %d abandoned + %d skipped (recovered)",
		total, succeeded, degraded, deadLettered, shed, abandoned, skipped)
	if lost := total - succeeded - degraded - deadLettered - shed - abandoned - skipped; lost > 0 {
		fmt.Printf(" — %d LOST (cancelled before processing)", lost)
	}
	fmt.Println()
	if retries > 0 {
		fmt.Printf("transient retries consumed: %d\n", retries)
	}
	if ov := svc.OverloadStatus(); ov.QueueCapacity > 0 {
		fmt.Printf("overload: shed=%d abandoned=%d ewma_task=%.0fms\n", ov.TasksShed, ov.TasksAbandoned, ov.EWMATaskSeconds*1000)
	}
	if breaker != nil {
		fmt.Printf("breaker: state=%s trips=%d\n", breaker.State(), breaker.Trips())
	}
	if len(dets) == 0 {
		fmt.Println("no tasks completed")
		return
	}
	n := time.Duration(len(dets))
	fmt.Printf("%d tasks (%d failed): %s, mean queued %s, mean process %s\n",
		len(reports), deadLettered, metrics.AggregateDetections(dets),
		(queued / n).Round(time.Millisecond), (process / n).Round(time.Millisecond))
}
