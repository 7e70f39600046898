package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"enld/internal/baselines"
	"enld/internal/experiments"
	"enld/internal/fault"
	"enld/internal/lake"
	"enld/internal/lake/cluster"
	"enld/internal/obs"
	"enld/internal/workload"
)

// The coordinator satisfies the replay harness's Submitter contract, so one
// Play call drives a whole cluster exactly as it drives a single service.
var _ workload.Submitter = (*cluster.Coordinator)(nil)

// runClusterScenario replays the scenario against an in-process sharded
// cluster: n shard workers, each a full lake service with its own registry,
// policy, fault-injection stream and (optionally) seglog inventory
// subdirectory, fronted by a rendezvous-hashing coordinator. The replay is
// summarized from the coordinator's merged scatter/gather /metrics view
// through the same reduction as a single-node run.
//
// killShard >= 0 hard-kills that shard killAfter into the replay — queued
// and in-flight work on the victim is abandoned at the shard, rerouted by
// the coordinator, and the run must still account for every offered task.
func runClusterScenario(ctx context.Context, spec workload.Spec, n, killShard int, killAfter time.Duration, speed float64, timeout time.Duration, storeKind, storeDir, metricsDir string) (*workload.ScenarioResult, error) {
	if killShard >= n {
		return nil, fmt.Errorf("-kill-shard %d out of range for %d shard(s)", killShard, n)
	}
	// The coordinator's registry carries platform setup, the generator's own
	// load metrics and the enld_cluster_* placement/reroute families; it
	// rides into the merged exposition as the unlabelled passthrough part.
	coordReg := obs.NewRegistry()

	scale := spec.Scale
	if scale == 0 {
		scale = 1
	}
	taskWorkers := spec.TaskWorkers
	if taskWorkers == 0 {
		taskWorkers = 1
	}
	cfg := experiments.Config{Seed: spec.Seed, DataScale: scale, Workers: taskWorkers, Obs: coordReg}
	wb, err := experiments.BuildWorkbench(spec.Preset, spec.Eta, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("[%s] platform ready: %s eta=%.2f setup=%s\n",
		spec.Name, spec.Preset, spec.Eta, wb.Platform.SetupTime.Round(time.Millisecond))

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

	workers := make([]*cluster.ShardWorker, n)
	shards := make([]cluster.Shard, n)
	for i := range workers {
		name := fmt.Sprintf("shard-%d", i)
		detector, err := findDetector(wb, spec)
		if err != nil {
			return nil, err
		}
		f := spec.Fault
		if f.FailRate > 0 || f.PanicRate > 0 || f.SlowRate > 0 || f.CorruptRate > 0 {
			// Each shard gets its own deterministic chaos stream: same rates,
			// seed offset by the shard index so the shards do not fail in
			// lockstep.
			inj, err := fault.New(detector, fault.Config{
				Seed:        f.Seed + uint64(i)*101,
				FailRate:    f.FailRate,
				PanicRate:   f.PanicRate,
				SlowRate:    f.SlowRate,
				Latency:     time.Duration(f.SlowLatencyMS * float64(time.Millisecond)),
				CorruptRate: f.CorruptRate,
			})
			if err != nil {
				return nil, err
			}
			detector = inj
		}
		wcfg := cluster.WorkerConfig{
			Name: name,
			// Every shard runs the scenario's worker count: the cluster
			// scenario is its own baseline (name suffixed -cluster), not a
			// capacity-matched rerun of the single-node one.
			Workers:  spec.Workers,
			Policy:   policy,
			Registry: obs.NewRegistry(),
		}
		if spec.Brownout {
			ladder, err := brownoutLadder(wb, spec, detector)
			if err != nil {
				return nil, err
			}
			wcfg.Ladder = ladder
		}
		if storeKind != "" {
			inv, err := openInventory(storeKind, storeDir, filepath.Join(spec.Name, name), wcfg.Registry)
			if err != nil {
				return nil, err
			}
			if inv != nil {
				defer inv.Close()
				wcfg.Inventory = inv
			}
		}
		w, err := cluster.NewShardWorker(detector, wcfg)
		if err != nil {
			return nil, err
		}
		workers[i] = w
		shards[i] = w
	}
	defer func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, w := range workers {
			_ = w.Drain(drainCtx)
		}
	}()

	coord, err := cluster.New(shards, cluster.Options{Policy: policy})
	if err != nil {
		return nil, err
	}
	coord.SetObs(coordReg)
	fmt.Printf("[%s] cluster: %d shard(s), rendezvous placement, %d worker(s) each\n", spec.Name, n, spec.Workers)

	trace, err := workload.GenTrace(spec)
	if err != nil {
		return nil, err
	}
	hash, err := trace.Hash()
	if err != nil {
		return nil, err
	}
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

	if killShard >= 0 && killAfter > 0 {
		victim := workers[killShard]
		timer := time.AfterFunc(killAfter, func() {
			fmt.Printf("[%s] killing %s %.1fs into the replay\n", spec.Name, victim.Name(), killAfter.Seconds())
			victim.Kill()
		})
		defer timer.Stop()
	}

	runCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	played, err := workload.Play(runCtx, coord, trace, catalog, workload.PlayOptions{Speed: speed, Obs: coordReg})
	if err != nil {
		return nil, err
	}

	// The cluster accounting identity: every offered task lands in exactly
	// one terminal class. lost > 0 means a task vanished without a report —
	// the one outcome the cluster must never produce.
	var acct struct{ completed, rerouted, shed, abandoned, deadLetter int }
	for _, rep := range played.Reports {
		switch {
		case rep.Shed:
			acct.shed++
		case rep.Abandoned:
			acct.abandoned++
		case rep.DeadLettered:
			acct.deadLetter++
		case rep.Rerouted:
			acct.rerouted++
		default:
			acct.completed++
		}
	}
	lost := played.Offered - acct.completed - acct.rerouted - acct.shed - acct.abandoned - acct.deadLetter
	fmt.Printf("[%s] cluster accounting: offered=%d completed=%d rerouted=%d shed=%d abandoned=%d dead_letter=%d lost=%d\n",
		spec.Name, played.Offered, acct.completed, acct.rerouted, acct.shed, acct.abandoned, acct.deadLetter, lost)

	// Summarize from the coordinator's merged scatter/gather exposition —
	// the same bytes a cluster /metrics scrape would return, reduced by the
	// same code as a single-node run.
	var merged bytes.Buffer
	if err := coord.WriteMetrics(ctx, &merged); err != nil {
		return nil, err
	}
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(metricsDir, spec.Name+".metrics.txt"), merged.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	res, err := workload.SummarizeExposition(spec, played, &merged)
	if err != nil {
		return nil, err
	}
	if lost != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("cluster accounting: %d task(s) lost without a report", lost))
		res.Pass = false
	}
	return res, nil
}
