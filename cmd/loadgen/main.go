// Command loadgen replays declarative load scenarios against the lake
// service and gates the measured latency distribution on each scenario's
// SLOs. A scenario spec (internal/workload) declares the arrival schedule,
// the Zipf-skewed dataset catalog, the fault and resilience configuration
// and the objectives; loadgen generates the deterministic trace, replays it
// in-process against the stack internal/stack builds from the spec (one
// service, or with -cluster an in-process sharded cluster), reduces the
// stack's report stream — one report per offered task — to the scenario's
// outcomes, exact latency percentiles and SLO verdict, and writes one
// BENCH_load.json document for benchsummary to compare against a
// checked-in baseline:
//
//	loadgen -out BENCH_load.json scenarios/ci-short.json
//	loadgen -store seglog -store-dir /tmp/lg -speed 2 scenarios/*.json
//
// Exit status: 0 when every scenario meets its SLOs, 1 on violations
// (suppressed by -warn-only), 2 on usage or build errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"enld/internal/obs"
	"enld/internal/stack"
	"enld/internal/workload"
)

func main() {
	var (
		out        = flag.String("out", "BENCH_load.json", "load summary artifact path")
		metricsDir = flag.String("metrics-dir", "", "write each scenario's final /metrics exposition to <dir>/<scenario>.metrics.txt")
		speed      = flag.Float64("speed", 1, "replay time compression: 2 submits twice as fast as the trace prescribes")
		storeKind  = flag.String("store", "", "durable inventory backend under load: seglog, memory (empty = off)")
		storeDir   = flag.String("store-dir", "", "directory for durable inventory storage (per-scenario subdirectories)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "per-scenario replay deadline")
		warnOnly   = flag.Bool("warn-only", false, "report SLO violations without failing the process")
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
			spec.Brownout = false
			spec.Policy.QueueDepth = 1 << 16
			spec.Policy.MaxQueueWaitMS = 0
		}
		if *clusterN > 0 {
			spec.Name += "-cluster"
		}
		res, err := runScenario(ctx, spec, runOptions{
			speed: *speed, timeout: *timeout,
			storeKind: *storeKind, storeDir: *storeDir, metricsDir: *metricsDir,
			shards: *clusterN, killShard: *killShard, killAfter: *killAfter,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: scenario %s: %v\n", spec.Name, err)
			os.Exit(2)
		}
		summary.Scenarios = append(summary.Scenarios, *res)
		res.Print(os.Stdout)
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

// runOptions are the command line's share of a replay: the time
// compression, the deadline, where stores and metrics go, and the cluster
// topology with its optional mid-replay shard kill.
type runOptions struct {
	speed                           float64
	timeout                         time.Duration
	storeKind, storeDir, metricsDir string
	shards, killShard               int
	killAfter                       time.Duration
}

// runScenario builds the system under test the spec describes — one
// service, or with o.shards > 0 an in-process cluster whose every shard runs
// the scenario's worker count (the cluster scenario is its own baseline,
// not a capacity-matched rerun) — replays the scenario's trace against it
// and reduces the run's reports to its ScenarioResult.
//
// o.killShard >= 0 hard-kills that shard o.killAfter into the replay: the
// victim's queued and in-flight work is abandoned at the shard and rerouted
// by the coordinator, and the run must still account for every offered
// task.
func runScenario(ctx context.Context, spec workload.Spec, o runOptions) (*workload.ScenarioResult, error) {
	if o.shards > 0 && o.killShard >= o.shards {
		return nil, fmt.Errorf("-kill-shard %d out of range for %d shard(s)", o.killShard, o.shards)
	}
	// Each scenario gets a fresh registry so its -metrics-dir exposition
	// covers exactly one replay.
	reg := obs.NewRegistry()
	cfg := stack.Config{
		Preset:     spec.Preset,
		Eta:        spec.Eta,
		Scale:      spec.Scale,
		Seed:       spec.Seed,
		Method:     spec.Method,
		Workers:    spec.Workers,
		Fault:      spec.Fault.Config(),
		Policy:     spec.Policy.Policy(),
		Fallback:   spec.Policy.Fallback,
		Brownout:   spec.Brownout,
		TierFloors: spec.SLO.MinTierF1,
		Store:      o.storeKind,
		Shards:     o.shards,
		Registry:   reg,
		Label:      "[" + spec.Name + "] ",
	}
	if o.storeDir != "" {
		cfg.StoreDir = filepath.Join(o.storeDir, spec.Name)
	}
	st, err := stack.Build(cfg)
	if err != nil {
		return nil, err
	}
	defer st.Close()

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
	pool, err := st.Workbench.Spec.Generate()
	if err != nil {
		return nil, err
	}
	catalog, err := workload.Materialize(trace, pool, st.Workbench.Spec.Classes)
	if err != nil {
		return nil, err
	}
	fmt.Printf("[%s] trace %016x: %d events over %s across %d datasets, replay speed %.1fx\n",
		spec.Name, hash, len(trace.Events), trace.Duration.Round(time.Second), len(catalog), o.speed)

	if o.shards > 0 && o.killShard >= 0 && o.killAfter > 0 {
		victim := st.Workers[o.killShard]
		timer := time.AfterFunc(o.killAfter, func() {
			fmt.Printf("[%s] killing %s %.1fs into the replay\n", spec.Name, victim.Name(), o.killAfter.Seconds())
			victim.Kill()
		})
		defer timer.Stop()
	}

	runCtx, cancel := context.WithTimeout(ctx, o.timeout)
	defer cancel()
	played, err := workload.Play(runCtx, st.Submitter(), trace, catalog, workload.PlayOptions{Speed: o.speed, Obs: reg})
	if err != nil {
		return nil, err
	}
	st.PrintStats()
	// Every offered task lands in exactly one outcome class; a lost task
	// vanished without a report, the one outcome the stack must never
	// produce.
	acct := stack.Account(played.Reports, played.Offered, 0)
	kind := "accounting"
	if o.shards > 0 {
		kind = "cluster accounting"
	}
	fmt.Printf("[%s] %s: %s\n", spec.Name, kind, acct)

	if o.metricsDir != "" {
		// The scenario's final exposition: the artifact CI uploads next to
		// BENCH_load.json.
		var exposition bytes.Buffer
		if err := st.WriteMetrics(ctx, &exposition); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(o.metricsDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(o.metricsDir, spec.Name+".metrics.txt"), exposition.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	res := workload.Summarize(spec, played)
	if acct.Lost != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%s: %d task(s) lost without a report", kind, acct.Lost))
		res.Pass = false
	}
	return res, nil
}
