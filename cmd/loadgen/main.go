// Command loadgen replays declarative load scenarios against the lake
// service and gates the measured latency distribution on each scenario's
// SLOs. A scenario spec (internal/workload) declares the arrival schedule,
// the Zipf-skewed dataset catalog, the fault and resilience configuration
// and the objectives; loadgen generates the deterministic trace, replays it
// in-process against a freshly built platform, scrapes the service's own
// obs histograms, and writes one BENCH_load.json document for benchsummary
// to compare against a checked-in baseline:
//
//	loadgen -out BENCH_load.json scenarios/ci-short.json
//	loadgen -store seglog -store-dir /tmp/lg -speed 2 scenarios/*.json
//
// With -scrape-url the replay is skipped entirely and the SLOs are
// evaluated against a live /metrics endpoint (a running lakesim), which
// makes the same gate usable against a deployed service:
//
//	loadgen -scrape-url http://localhost:8080/metrics -scrape-wall 30 scenarios/ci-short.json
//
// Exit status: 0 when every scenario meets its SLOs, 1 on violations
// (suppressed by -warn-only), 2 on usage or build errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"enld/internal/baselines"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/fault"
	"enld/internal/lake"
	"enld/internal/lake/seglog"
	"enld/internal/obs"
	"enld/internal/workload"
)

func main() {
	var (
		out        = flag.String("out", "BENCH_load.json", "load summary artifact path")
		metricsDir = flag.String("metrics-dir", "", "write each scenario's final /metrics exposition to <dir>/<scenario>.metrics.txt")
		speed      = flag.Float64("speed", 1, "replay time compression: 2 submits twice as fast as the trace prescribes")
		storeKind  = flag.String("store", "", "durable inventory backend under load: seglog, gob, memory (empty = off)")
		storeDir   = flag.String("store-dir", "", "directory for durable inventory storage (per-scenario subdirectories)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "per-scenario replay deadline")
		warnOnly   = flag.Bool("warn-only", false, "report SLO violations without failing the process")
		scrapeURL  = flag.String("scrape-url", "", "evaluate SLOs against this live /metrics endpoint instead of replaying")
		scrapeWall = flag.Float64("scrape-wall", 0, "wall-clock seconds the scraped service has been serving (for the throughput objective)")
		noBrownout = flag.Bool("no-brownout", false, "strip the scenario's overload protection (bounded admission, shedding, brownout tiers) and replay unprotected; the result is renamed <name>-unprotected so protected and baseline runs coexist in one artifact")

		// Cluster mode (internal/lake/cluster): replay against an in-process
		// sharded coordinator instead of a single service.
		clusterN  = flag.Int("cluster", 0, "replay against an in-process cluster of this many shard workers behind a rendezvous-hashing coordinator; the result is renamed <name>-cluster so single-node and cluster runs coexist in one artifact")
		killShard = flag.Int("kill-shard", -1, "hard-kill this shard index mid-replay (needs -cluster and -kill-after); its queued work must reroute with nothing lost")
		killAfter = flag.Duration("kill-after", 0, "how far into the replay to kill -kill-shard")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no scenario spec files given")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	summary := workload.LoadSummary{GoVersion: runtime.Version()}
	for _, path := range flag.Args() {
		spec, err := workload.LoadSpec(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
		if *noBrownout {
			// The unprotected baseline: same trace (generation is seeded, the
			// name is only a label), no shedding, no degradation tiers. The
			// queue is left effectively unbounded — not zero: a zero depth
			// falls back to the blocking hand-off, which pushes the delay into
			// the generator's send lag where the service's own queued-latency
			// histogram cannot see it. A deep queue admits every arrival
			// immediately, so saturation shows up honestly as queued-p99
			// collapse in the same metrics the protected run is gated on.
			spec.Name += "-unprotected"
			spec.Brownout = nil
			spec.Policy.QueueDepth = 1 << 16
			spec.Policy.MaxQueueWaitMS = 0
		}
		var res *workload.ScenarioResult
		switch {
		case *scrapeURL != "":
			res, err = workload.SummarizeScrape(spec.Name, *scrapeURL, spec.SLO, *scrapeWall)
		case *clusterN > 0:
			spec.Name += "-cluster"
			res, err = runClusterScenario(ctx, spec, *clusterN, *killShard, *killAfter, *speed, *timeout, *storeKind, *storeDir, *metricsDir)
		default:
			res, err = runScenario(ctx, spec, *speed, *timeout, *storeKind, *storeDir, *metricsDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: scenario %s: %v\n", spec.Name, err)
			os.Exit(2)
		}
		summary.Scenarios = append(summary.Scenarios, *res)
		report(os.Stdout, res)
	}

	if *out != "" {
		raw, err := json.MarshalIndent(&summary, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s (%d scenario(s))\n", *out, len(summary.Scenarios))
	}

	failed := 0
	for _, sc := range summary.Scenarios {
		if !sc.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d of %d scenario(s) violated their SLOs\n", failed, len(summary.Scenarios))
		if !*warnOnly {
			os.Exit(1)
		}
	}
}

// runScenario builds the system under test the spec describes, replays the
// scenario's trace against it and reduces the run to its ScenarioResult.
func runScenario(ctx context.Context, spec workload.Spec, speed float64, timeout time.Duration, storeKind, storeDir, metricsDir string) (*workload.ScenarioResult, error) {
	// Each scenario gets a fresh registry so its scrape measures exactly one
	// replay — the same isolation a per-run /metrics endpoint would give.
	reg := obs.NewRegistry()

	scale := spec.Scale
	if scale == 0 {
		scale = 1
	}
	taskWorkers := spec.TaskWorkers
	if taskWorkers == 0 {
		taskWorkers = 1
	}
	cfg := experiments.Config{Seed: spec.Seed, DataScale: scale, Workers: taskWorkers, Obs: reg}
	wb, err := experiments.BuildWorkbench(spec.Preset, spec.Eta, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("[%s] platform ready: %s eta=%.2f setup=%s\n",
		spec.Name, spec.Preset, spec.Eta, wb.Platform.SetupTime.Round(time.Millisecond))

	detector, err := findDetector(wb, spec)
	if err != nil {
		return nil, err
	}
	var injector *fault.Injector
	f := spec.Fault
	if f.FailRate > 0 || f.PanicRate > 0 || f.SlowRate > 0 || f.CorruptRate > 0 {
		injector, err = fault.New(detector, fault.Config{
			Seed:        f.Seed,
			FailRate:    f.FailRate,
			PanicRate:   f.PanicRate,
			SlowRate:    f.SlowRate,
			Latency:     time.Duration(f.SlowLatencyMS * float64(time.Millisecond)),
			CorruptRate: f.CorruptRate,
		})
		if err != nil {
			return nil, err
		}
		detector = injector
		fmt.Printf("[%s] fault injection on: fail=%.2f panic=%.2f slow=%.2f corrupt=%.2f\n",
			spec.Name, f.FailRate, f.PanicRate, f.SlowRate, f.CorruptRate)
	}

	p := spec.Policy
	policy := lake.Policy{
		TaskTimeout:      time.Duration(p.TaskTimeoutSeconds * float64(time.Second)),
		MaxRetries:       p.Retries,
		RetryBase:        time.Duration(p.RetryBaseMS * float64(time.Millisecond)),
		RetrySeed:        spec.Seed,
		BreakerThreshold: p.BreakerThreshold,
		BreakerCooldown:  time.Duration(p.BreakerCooldownMS * float64(time.Millisecond)),
		Admission:        p.Admission(),
	}
	if p.Fallback {
		policy.Fallback = baselines.Default{Model: wb.Platform.Model}
	}
	svc, err := lake.NewServiceWithPolicy(detector, spec.Workers, policy)
	if err != nil {
		return nil, err
	}
	if spec.Brownout != nil {
		ladder, err := brownoutLadder(wb, spec, detector)
		if err != nil {
			return nil, err
		}
		if err := svc.SetBrownout(ladder, spec.Brownout.Config(), func(from, to int) {
			fmt.Printf("[%s] brownout: tier %d (%s) -> %d (%s)\n",
				spec.Name, from, ladder[from].Name, to, ladder[to].Name)
		}); err != nil {
			return nil, err
		}
		fmt.Printf("[%s] brownout on: %d-tier ladder, queue watermarks %d/%d, p95 watermarks %.0f/%.0fms\n",
			spec.Name, len(ladder), spec.Brownout.QueueHigh, spec.Brownout.QueueLow,
			spec.Brownout.P95HighMS, spec.Brownout.P95LowMS)
	}
	svc.SetObs(reg)
	lake.ObserveBreaker(svc.Breaker(), reg)

	inv, err := openInventory(storeKind, storeDir, spec.Name, reg)
	if err != nil {
		return nil, err
	}
	if inv != nil {
		defer inv.Close()
		svc.SetInventory(inv)
		fmt.Printf("[%s] durable inventory: %s backend\n", spec.Name, inv.Stats().Backend)
	}

	trace, err := workload.GenTrace(spec)
	if err != nil {
		return nil, err
	}
	hash, err := trace.Hash()
	if err != nil {
		return nil, err
	}
	// The catalog draws from a fresh clean pool (Generate is deterministic
	// from the preset seed); per-entry noise comes from the spec's mix, not
	// from the platform's inventory noise.
	pool, err := wb.Spec.Generate()
	if err != nil {
		return nil, err
	}
	catalog, err := workload.Materialize(trace, pool, wb.Spec.Classes)
	if err != nil {
		return nil, err
	}
	fmt.Printf("[%s] trace %016x: %d events over %s across %d datasets, replay speed %.1fx\n",
		spec.Name, hash, len(trace.Events), trace.Duration.Round(time.Second), len(catalog), speed)

	runCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	played, err := workload.Play(runCtx, svc, trace, catalog, workload.PlayOptions{Speed: speed, Obs: reg})
	if err != nil {
		return nil, err
	}
	if injector != nil {
		st := injector.Stats()
		fmt.Printf("[%s] faults injected: calls=%d failures=%d panics=%d slowdowns=%d corruptions=%d\n",
			spec.Name, st.Calls, st.Failures, st.Panics, st.Slowdowns, st.Corruptions)
	}

	if metricsDir != "" {
		if err := writeMetrics(metricsDir, spec.Name, reg); err != nil {
			return nil, err
		}
	}
	return workload.Summarize(spec, played, reg)
}

// brownoutLadder builds the ENLD degradation ladder on the scenario's
// platform. Tier 0 is replaced by the scenario's own method — fault-injector
// wrap included — so the ladder degrades from the detector under test. The
// injector wraps tier 0 only: the full-quality rung is the one under chaos,
// and the fallback rung models the clean cheap path the brownout degrades
// to.
func brownoutLadder(wb *experiments.Workbench, spec workload.Spec, detector detect.Detector) ([]lake.TierDetector, error) {
	ladder := experiments.BrownoutLadder(wb)
	ladder[0].Detector = detector
	if err := checkTierFloors(spec.SLO.MinTierF1, ladder); err != nil {
		return nil, err
	}
	return ladder, nil
}

// checkTierFloors rejects a min_tier_f1 floor on a tier the ladder lacks.
// The SLO skips tiers that served no tasks, so such a floor could never be
// judged and would pass silently.
func checkTierFloors(floors map[string]float64, ladder []lake.TierDetector) error {
	for _, tier := range sortedKeys(floors) {
		if !slices.ContainsFunc(ladder, func(r lake.TierDetector) bool { return r.Name == tier }) {
			return fmt.Errorf("min_tier_f1 names tier %q, which the brownout ladder lacks", tier)
		}
	}
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// findDetector resolves the spec's method name against the full detector
// registry, built on the workbench's platform.
func findDetector(wb *experiments.Workbench, spec workload.Spec) (detect.Detector, error) {
	var known []string
	for _, d := range experiments.AllMethods(wb, spec.Seed+3) {
		if d.Name() == spec.Method {
			return d, nil
		}
		known = append(known, d.Name())
	}
	return nil, fmt.Errorf("unknown method %q (have %v)", spec.Method, known)
}

// openInventory opens per-scenario durable storage, mirroring lakesim's
// backends. Empty kind means durability off.
func openInventory(kind, dir, scenario string, reg *obs.Registry) (lake.Inventory, error) {
	switch kind {
	case "":
		return nil, nil
	case "memory":
		return lake.NewMemInventory(), nil
	case "seglog":
		if dir == "" {
			return nil, fmt.Errorf("-store seglog needs -store-dir")
		}
		lg, err := seglog.Open(filepath.Join(dir, scenario), seglog.Options{})
		if err != nil {
			return nil, err
		}
		lg.SetObs(reg)
		return lg, nil
	case "gob":
		if dir == "" {
			return nil, fmt.Errorf("-store gob needs -store-dir")
		}
		sub := filepath.Join(dir, scenario)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		return lake.OpenGobInventory(filepath.Join(sub, "inventory.gob"))
	default:
		return nil, fmt.Errorf("unknown -store backend %q (want seglog, gob or memory)", kind)
	}
}

// writeMetrics dumps the scenario's final exposition — the artifact CI
// uploads next to BENCH_load.json.
func writeMetrics(dir, scenario string, reg *obs.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, scenario+".metrics.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WritePrometheus(f)
}

// report prints one scenario's verdict for the run log.
func report(w io.Writer, r *workload.ScenarioResult) {
	fmt.Fprintf(w, "[%s] completed=%d/%d offered, %.2f req/s, task p50/p95/p99 = %.3f/%.3f/%.3f s, queued p99 = %.3f s\n",
		r.Name, r.Completed, r.Offered, r.ThroughputRPS,
		r.TaskSeconds.P50, r.TaskSeconds.P95, r.TaskSeconds.P99, r.QueuedSeconds.P99)
	fmt.Fprintf(w, "[%s] outcomes: ok=%d degraded=%d dead_letter=%d shed=%d abandoned=%d retries=%d breaker_opens=%d max_send_lag=%.3fs\n",
		r.Name, r.Outcomes["ok"], r.Outcomes["degraded"], r.Outcomes["dead_letter"],
		r.Outcomes["shed"], r.Outcomes["abandoned"],
		r.Retries, r.BreakerOpens, r.MaxSendLagSeconds)
	if r.TierChanges > 0 || len(r.TierF1) > 0 {
		fmt.Fprintf(w, "[%s] brownout: max_tier=%d tier_changes=%d", r.Name, r.BrownoutMaxTier, r.TierChanges)
		for _, tier := range sortedKeys(r.TierF1) {
			q := r.TierF1[tier]
			fmt.Fprintf(w, " %s: F1=%.3f over %d", tier, q.MeanF1, q.Tasks)
		}
		fmt.Fprintln(w)
	}
	if r.Pass {
		fmt.Fprintf(w, "[%s] SLO: PASS\n", r.Name)
		return
	}
	fmt.Fprintf(w, "[%s] SLO: FAIL\n", r.Name)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "[%s]   violation: %s\n", r.Name, v)
	}
}
