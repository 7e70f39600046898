// Package stack builds the serving stack the commands run. One
// system-under-test Config becomes a platform, one detector per shard (fault
// wrap included), a resilience policy, an optional brownout ladder, one
// inventory per shard, and either a bare lake.Service or a rendezvous
// coordinator over in-process or remote shard workers. cmd/lakesim and
// cmd/loadgen both stand their service up through Build, so each wiring
// decision is made here once; the commands only drive the result.
package stack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"enld/internal/baselines"
	"enld/internal/core"
	"enld/internal/detect"
	"enld/internal/experiments"
	"enld/internal/fault"
	"enld/internal/lake"
	"enld/internal/lake/cluster"
	"enld/internal/lake/seglog"
	"enld/internal/obs"
	"enld/internal/workload"
)

// Config is one system under test.
type Config struct {
	// The platform: workload preset, inventory noise rate, dataset size
	// factor (0 = 1), seed and incremental dataset count (0 = the preset's).
	Preset   string
	Eta      float64
	Scale    float64
	Seed     uint64
	Datasets int
	// PlatformFile, unless a journal store holds the platform, is loaded
	// instead of running setup when it exists and written after setup
	// otherwise.
	PlatformFile string

	// The service: detector method, worker-pool size of each service, fault
	// injection (all rates zero = off), resilience policy (its Fallback is
	// the Default baseline when Fallback is set),
	// the brownout ladder, the per-tier F1 floors the run is judged on, and
	// how many recent reports /statusz keeps (0 = default).
	Method     string
	Workers    int
	Fault      fault.Config
	Policy     lake.Policy
	Fallback   bool
	Brownout   bool
	TierFloors map[string]float64
	KeepRecent int

	// Storage: Store is "" (none), "memory" or "seglog" (needs StoreDir).
	// A single node keeps its store in StoreDir, shards theirs in
	// StoreDir/<shard name>. Journal makes a single node's store also hold
	// the platform snapshot (restored instead of set up) and every task's
	// outcome; Resume then skips the tasks whose outcome it records.
	Store    string
	StoreDir string
	Journal  bool
	Resume   bool

	// Topology: Shards > 0 runs that many in-process shard workers, named
	// shard-i (or ShardName, when Shards is 1), behind a coordinator;
	// Remote puts the coordinator over HTTP shard workers at these base
	// URLs instead, and sets up no platform: the coordinator runs no
	// detector, so it builds only the feed datasets. Neither means one bare
	// lake.Service.
	Shards    int
	ShardName string
	Remote    []string

	// Registry observes the platform and the service or coordinator; each
	// shard gets a registry of its own. Label prefixes every line Build
	// prints to Stdout and Stderr (default os.Stdout and os.Stderr).
	Registry       *obs.Registry
	Label          string
	Stdout, Stderr io.Writer
}

// Stack is a built, running system under test.
type Stack struct {
	Workbench   *experiments.Workbench
	Service     *lake.Service          // the single node; nil for a cluster
	Coordinator *cluster.Coordinator   // the cluster front; nil for a single node
	Workers     []*cluster.ShardWorker // the in-process shards
	// Skipped counts the tasks Resume skips.
	Skipped int

	cfg       Config
	tracker   *lake.StatusTracker
	invs      []lake.Inventory
	invNames  []string // "storage" or "storage <shard>", parallel to invs
	injectors []*fault.Injector
}

// Build stands up the stack cfg describes. On error everything it opened is
// closed again. An unknown method or an invalid topology is refused before
// anything is set up.
func Build(cfg Config) (_ *Stack, err error) {
	if !slices.Contains(experiments.MethodNames, cfg.Method) {
		return nil, fmt.Errorf("unknown method %q (have %v)", cfg.Method, experiments.MethodNames)
	}
	if cfg.Shards > 0 && len(cfg.Remote) > 0 {
		return nil, errors.New("in-process shards and remote shards are exclusive")
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Stdout == nil {
		cfg.Stdout = os.Stdout
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	s := &Stack{cfg: cfg}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	policy := cfg.Policy
	if a := policy.Admission; a.QueueDepth > 0 {
		s.printf("admission: queue depth %d, max predicted wait %s", a.QueueDepth, a.MaxQueueWait)
	}
	if len(cfg.Remote) > 0 {
		if s.Workbench, err = experiments.BuildData(cfg.Preset, cfg.Eta, s.experimentsConfig()); err != nil {
			return nil, err
		}
		var shards []cluster.Shard
		for _, u := range cfg.Remote {
			shards = append(shards, cluster.NewHTTPShard(u, u))
		}
		if err := s.coordinate(shards, policy); err != nil {
			return nil, err
		}
		s.printf("coordinator over %d HTTP shard(s)", len(shards))
		return s, nil
	}

	single := cfg.Shards == 0
	var inv lake.Inventory
	if single {
		// Opened before setup: a journal store may hold the platform.
		if inv, err = s.openInventory("", cfg.Registry); err != nil {
			return nil, err
		}
	}
	journal := inv
	if !cfg.Journal {
		journal = nil
	}
	if s.Workbench, err = s.workbench(journal); err != nil {
		return nil, err
	}
	wb := s.Workbench
	s.printf("platform ready: %s eta=%.2f, inventory=%d, setup=%s",
		cfg.Preset, cfg.Eta, len(wb.Inventory), wb.Platform.SetupTime.Round(time.Millisecond))

	if cfg.Fallback {
		policy.Fallback = baselines.Default{Model: wb.Platform.Model}
	}
	if single {
		if err := s.buildService(policy, inv); err != nil {
			return nil, err
		}
		return s, nil
	}

	var shards []cluster.Shard
	for i := 0; i < cfg.Shards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		if cfg.ShardName != "" {
			name = cfg.ShardName
		}
		det, ladder, err := s.detector(i)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		inv, err := s.openInventory(name, reg)
		if err != nil {
			return nil, err
		}
		w, err := cluster.NewShardWorker(det, cluster.WorkerConfig{
			Name:       name,
			Workers:    cfg.Workers,
			Policy:     policy,
			Registry:   reg,
			Inventory:  inv,
			Ladder:     ladder,
			KeepRecent: cfg.KeepRecent,
		})
		if err != nil {
			return nil, err
		}
		s.Workers = append(s.Workers, w)
		shards = append(shards, w)
	}
	if err := s.coordinate(shards, policy); err != nil {
		return nil, err
	}
	if cfg.ShardName == "" {
		s.printf("in-process cluster: %d shard(s), rendezvous placement, %d worker(s) each", len(shards), cfg.Workers)
	}
	return s, nil
}

// coordinate puts the rendezvous coordinator, observed into the stack's
// registry, over shards.
func (s *Stack) coordinate(shards []cluster.Shard, policy lake.Policy) (err error) {
	if s.Coordinator, err = cluster.New(shards, cluster.Options{Policy: policy}); err != nil {
		return err
	}
	s.Coordinator.SetObs(s.cfg.Registry)
	return nil
}

// buildService wires the single node: one lake.Service observed into the
// stack's registry and tracked for /statusz. With a journal seglog store,
// each task's outcome is appended as it completes (not after the run), so a
// crash loses at most the tasks in flight.
func (s *Stack) buildService(policy lake.Policy, inv lake.Inventory) error {
	det, ladder, err := s.detector(0)
	if err != nil {
		return err
	}
	svc, err := lake.NewServiceWithPolicy(det, s.cfg.Workers, policy)
	if err != nil {
		return err
	}
	if ladder != nil {
		if err := svc.SetBrownout(ladder); err != nil {
			return err
		}
	}
	svc.SetObs(s.cfg.Registry)
	s.Service = svc
	s.tracker = lake.NewStatusTracker(nil)
	s.tracker.SetKeepRecent(s.cfg.KeepRecent)
	s.tracker.AttachService(svc)
	if inv != nil {
		svc.SetInventory(inv)
		s.tracker.AttachInventory(inv)
	}
	if b := svc.Breaker(); b != nil {
		s.tracker.AttachBreaker(b)
		lake.ObserveBreaker(b, s.cfg.Registry)
		b.OnTransition(func(from, to lake.BreakerState) { s.printf("breaker: %s -> %s", from, to) })
	}

	outcomes, _ := inv.(*seglog.Log)
	if !s.cfg.Journal {
		outcomes = nil
	}
	if s.cfg.Resume {
		if outcomes == nil {
			return fmt.Errorf("resume needs a journal seglog store")
		}
		done := outcomes.DoneTasks()
		s.Skipped = len(done)
		s.printf("resume: %s records %d completed task(s), skipping them", s.cfg.StoreDir, len(done))
		svc.SkipCompleted(done)
	}
	svc.OnReport = func(rep lake.Report) {
		s.tracker.Record(rep)
		if outcomes == nil || rep.Err != nil || rep.Result == nil {
			return
		}
		note := "lakesim"
		if rep.Degraded {
			note = "lakesim-degraded"
		}
		noisy, clean := rep.Result.SortedIDs()
		if err := outcomes.AppendDetection(rep.TaskID, noisy, clean, note); err != nil {
			s.warnf("storage: recording task %d: %v", rep.TaskID, err)
		}
	}
	return nil
}

// detector resolves the method on the workbench and wraps it in shard i's
// own fault stream, its seed offset by 101·i so shards do not fail in
// lockstep. With brownout on it also returns the ladder, whose tier 0 is
// that detector: the full-quality rung is the one under chaos, and the
// fallback rung models the clean cheap path the run degrades to.
func (s *Stack) detector(i int) (detect.Detector, []lake.TierDetector, error) {
	det := experiments.AllMethods(s.Workbench, s.cfg.Seed+3)[slices.Index(experiments.MethodNames, s.cfg.Method)]
	if f := s.cfg.Fault; f.FailRate > 0 || f.PanicRate > 0 || f.SlowRate > 0 || f.CorruptRate > 0 {
		if i == 0 {
			s.printf("fault injection on: fail=%.2f panic=%.2f slow=%.2f corrupt=%.2f seed=%d",
				f.FailRate, f.PanicRate, f.SlowRate, f.CorruptRate, f.Seed)
		}
		f.Seed += uint64(i) * 101
		inj, err := fault.New(det, f)
		if err != nil {
			return nil, nil, err
		}
		s.injectors = append(s.injectors, inj)
		det = inj
	}
	if !s.cfg.Brownout {
		return det, nil, nil
	}
	ladder := experiments.BrownoutLadder(s.Workbench)
	ladder[0].Detector = det
	if err := checkTierFloors(s.cfg.TierFloors, ladder); err != nil {
		return nil, nil, err
	}
	if i == 0 {
		s.printf("brownout on: %d-tier ladder, rung picked at admission", len(ladder))
	}
	return det, ladder, nil
}

// checkTierFloors rejects a min_tier_f1 floor on a tier the ladder lacks.
// The SLO skips tiers that served no tasks, so such a floor could never be
// judged and would pass silently.
func checkTierFloors(floors map[string]float64, ladder []lake.TierDetector) error {
	var missing []string
	for tier := range floors {
		if !slices.ContainsFunc(ladder, func(r lake.TierDetector) bool { return r.Name == tier }) {
			missing = append(missing, tier)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return fmt.Errorf("min_tier_f1 names tier(s) %q, which the brownout ladder lacks", missing)
}

// workbench prepares the platform: restored from the journal store, or from
// PlatformFile, when either holds one; otherwise set up and saved there. A
// snapshot that fails verification (torn write, bit rot, foreign file) is
// not fatal: the run warns, sets up from scratch and replaces it, so a
// corrupt checkpoint costs a slow start instead of a crash loop.
func (s *Stack) workbench(journal lake.Inventory) (*experiments.Workbench, error) {
	c := s.cfg
	ecfg := s.experimentsConfig()
	var p *core.Platform
	var err error
	where := c.PlatformFile
	if journal != nil {
		where = "inventory"
		if p, err = core.LoadPlatformInventory(journal); errors.Is(err, lake.ErrNoSnapshot) {
			err = nil
		}
	} else if _, statErr := os.Stat(where); where != "" && statErr == nil {
		p, err = core.LoadPlatformFile(where)
	}
	if err != nil {
		s.warnf("platform snapshot rejected, rebuilding from scratch: %v", err)
	} else if p != nil {
		s.printf("platform restored from %s (setup skipped)", where)
		return experiments.BuildWorkbenchFrom(c.Preset, c.Eta, ecfg, p)
	}

	wb, err := experiments.BuildWorkbench(c.Preset, c.Eta, ecfg)
	if err != nil {
		return nil, err
	}
	switch {
	case journal != nil:
		err = core.SavePlatformInventory(wb.Platform, journal)
	case where != "":
		err = core.SavePlatformFile(wb.Platform, where)
	default:
		return wb, nil
	}
	if err != nil {
		return nil, err
	}
	s.printf("platform saved to %s", where)
	return wb, nil
}

// experimentsConfig is the workbench configuration cfg describes.
func (s *Stack) experimentsConfig() experiments.Config {
	c := s.cfg
	return experiments.Config{Seed: c.Seed, DataScale: c.Scale, Shards: c.Datasets, Obs: c.Registry}
}

// openInventory opens the configured store of the named shard, or of the
// single node when shard is "" (nil when storage is off), and reports the
// torn tail, if any, that recovery dropped.
func (s *Stack) openInventory(shard string, reg *obs.Registry) (lake.Inventory, error) {
	var inv lake.Inventory
	switch s.cfg.Store {
	case "":
		return nil, nil
	case "memory":
		inv = lake.NewMemInventory()
	case "seglog":
		if s.cfg.StoreDir == "" {
			return nil, fmt.Errorf("the seglog store needs a store directory")
		}
		dir := filepath.Join(s.cfg.StoreDir, shard)
		lg, err := seglog.Open(dir, seglog.Options{})
		if err != nil {
			return nil, err
		}
		lg.SetObs(reg)
		if rec := lg.Stats().Recovery; rec.TornTail {
			s.warnf("storage recovery dropped %d torn record(s), %d bytes at %s offset %d",
				rec.DroppedRecords, rec.DroppedBytes, filepath.Join(dir, rec.File), rec.Offset)
		}
		inv = lg
	default:
		return nil, fmt.Errorf("unknown store backend %q (want seglog or memory)", s.cfg.Store)
	}
	name := strings.TrimSpace("storage " + shard)
	s.invs, s.invNames = append(s.invs, inv), append(s.invNames, name)
	st := inv.Stats()
	s.printf("%s: %s backend, %d dataset(s), %d segment(s)", name, st.Backend, st.Datasets, st.Segments)
	return inv, nil
}

// Submitter is what a run drives: the bare service, or the coordinator.
func (s *Stack) Submitter() workload.Submitter {
	if s.Coordinator != nil {
		return s.Coordinator
	}
	return s.Service
}

// Handler serves /statusz and /metrics: the single node's tracker and
// registry, or the coordinator's scatter/gather views.
func (s *Stack) Handler() http.Handler {
	mux := http.NewServeMux()
	if s.Coordinator != nil {
		mux.Handle("/statusz", s.Coordinator.StatusHandler())
		mux.Handle("/metrics", s.Coordinator.MetricsHandler())
	} else {
		mux.Handle("/statusz", s.tracker.Handler())
		mux.Handle("/metrics", s.cfg.Registry.Handler())
	}
	return mux
}

// WriteMetrics renders what /metrics serves: the single node's registry,
// or the coordinator's merge of every shard's exposition with its own.
func (s *Stack) WriteMetrics(ctx context.Context, w io.Writer) error {
	if s.Coordinator != nil {
		return s.Coordinator.WriteMetrics(ctx, w)
	}
	return s.cfg.Registry.WritePrometheus(w)
}

// PrintStats prints what the run's stores and fault injectors did.
func (s *Stack) PrintStats() {
	for i, inv := range s.invs {
		st := inv.Stats()
		s.printf("%s: %s backend, %d dataset(s) (%d samples), %d segment(s), %d live / %d dead bytes, %d append(s), %d compaction(s)",
			s.invNames[i], st.Backend, st.Datasets, st.Samples, st.Segments, st.LiveBytes, st.DeadBytes, st.Appends, st.Compactions)
	}
	if len(s.injectors) == 0 {
		return
	}
	var t fault.Stats
	for _, inj := range s.injectors {
		st := inj.Stats()
		t.Calls += st.Calls
		t.Failures += st.Failures
		t.Panics += st.Panics
		t.Slowdowns += st.Slowdowns
		t.Corruptions += st.Corruptions
	}
	s.printf("faults injected: calls=%d failures=%d panics=%d slowdowns=%d corruptions=%d",
		t.Calls, t.Failures, t.Panics, t.Slowdowns, t.Corruptions)
}

// Close drains the in-process shards and closes every store. It returns
// the errors joined.
func (s *Stack) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, w := range s.Workers {
		errs = append(errs, w.Drain(ctx))
	}
	for _, inv := range s.invs {
		errs = append(errs, inv.Close())
	}
	return errors.Join(errs...)
}

func (s *Stack) printf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Stdout, "%s%s\n", s.cfg.Label, fmt.Sprintf(format, args...))
}

func (s *Stack) warnf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Stderr, "%s%s\n", s.cfg.Label, fmt.Sprintf(format, args...))
}
