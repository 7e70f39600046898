package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
)

// Runner executes one experiment and renders it to cfg.Out. The untyped
// return value is the experiment's structured result (a *FigureResult,
// *Fig3Result, *Fig8Result, *Fig13aResult, *TrajectoryResult or
// *Table2Result depending on the experiment).
type Runner func(cfg Config) (interface{}, error)

// registry maps experiment IDs (as used in DESIGN.md's per-experiment
// index) to runners.
var registry = map[string]Runner{
	"fig3":   func(c Config) (interface{}, error) { return RunFig3(c) },
	"fig4":   func(c Config) (interface{}, error) { return RunFig4(c) },
	"fig5":   func(c Config) (interface{}, error) { return RunFig5(c) },
	"fig6":   func(c Config) (interface{}, error) { return RunFig6(c) },
	"fig7":   func(c Config) (interface{}, error) { return RunFig7(c) },
	"fig8":   func(c Config) (interface{}, error) { return RunFig8(c) },
	"fig9":   func(c Config) (interface{}, error) { return RunFig9(c) },
	"fig10":  func(c Config) (interface{}, error) { return RunFig10(c) },
	"fig11":  func(c Config) (interface{}, error) { return RunFig11(c) },
	"fig12":  func(c Config) (interface{}, error) { return RunFig12(c) },
	"fig13a": func(c Config) (interface{}, error) { return RunFig13a(c) },
	"fig13b": func(c Config) (interface{}, error) { return RunFig13b(c) },
	"fig14":  func(c Config) (interface{}, error) { return RunFig14(c) },
	"tab2":   func(c Config) (interface{}, error) { return RunTable2(c) },
	"ext1":   func(c Config) (interface{}, error) { return RunExt1(c) },
	"ext2":   func(c Config) (interface{}, error) { return RunExt2(c) },
	"ext3":   func(c Config) (interface{}, error) { return RunExt3(c) },
}

// IDs returns the known experiment identifiers in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (interface{}, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(cfg)
}

// RunConcurrent executes the experiments with the given IDs, at most workers
// at a time (0 = all cores). Experiments are independent (each builds its own
// workbench from cfg.Seed), so running them concurrently changes nothing but
// wall-clock time: each renders into a private buffer and the buffers are
// flushed to cfg.Out in input order. Results are parallel to ids. A panicking
// experiment becomes its own error. On error the flushed output and the
// results gathered so far are still returned along with the first failing
// experiment's error.
func RunConcurrent(ids []string, cfg Config, workers int) ([]interface{}, error) {
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
		}
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]interface{}, len(ids))
	errs := make([]error, len(ids))
	bufs := make([]bytes.Buffer, len(ids))
	// Workers claim whole experiments in input order, which balances the
	// wildly uneven experiment durations.
	next := make(chan int, len(ids))
	for i := range ids {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for range min(workers, len(ids)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = runInto(ids[i], cfg, &bufs[i])
			}
		}()
	}
	wg.Wait()
	var firstErr error
	for i, id := range ids {
		if _, err := out.Write(bufs[i].Bytes()); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("experiments: writing %s output: %w", id, err)
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = fmt.Errorf("experiments: %s: %w", id, errs[i])
		}
	}
	return results, firstErr
}

// runInto runs experiment id rendering into out, turning a panic into the
// experiment's error.
func runInto(id string, cfg Config, out io.Writer) (res interface{}, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	cfg.Out = out
	return registry[id](cfg)
}
