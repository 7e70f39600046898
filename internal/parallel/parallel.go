// Package parallel provides the worker pool behind this repository's
// inter-task parallelism: the lake service's task workers and concurrent
// experiment execution. A detection task itself runs on one goroutine.
//
// ForEachChunk partitions an index range into fixed contiguous chunks whose
// boundaries depend only on the range length and the chunk size — never on
// the worker count.
//
// Worker panics are captured and re-raised on the calling goroutine as a
// *WorkerPanic carrying the original value and the worker's stack, so a
// panicking task cannot silently kill a pool goroutine.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"enld/internal/obs"
)

// Pool is a reusable fixed-size worker pool. A Pool holds no goroutines
// between calls — each Run/ForEach/ForEachChunk spawns workers for its own
// duration (the calling goroutine always serves as worker 0, so w workers
// cost w-1 goroutine launches, and a single effective worker costs none) —
// so a Pool is cheap to create, safe to share, and safe for concurrent use.
type Pool struct {
	workers int

	// busy is nil unless Instrument was called. A nil handle is a no-op, so
	// the uninstrumented hot path pays nothing.
	busy *obs.Gauge
}

// DefaultWorkers returns the worker count used when none is requested:
// GOMAXPROCS at call time.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// New returns a pool of the given size. A non-positive size selects
// DefaultWorkers, so callers can plumb a plain "0 = all cores" knob through.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Instrument attaches observability to the pool under the given pool name:
// enld_pool_busy_workers{pool=name} tracks workers currently inside a Run
// body. A nil registry leaves the pool uninstrumented (nil handles are
// no-ops). Returns the pool for chaining:
//
//	pool := parallel.New(workers).Instrument(reg, "lake")
func (p *Pool) Instrument(reg *obs.Registry, name string) *Pool {
	p.busy = reg.Gauge("enld_pool_busy_workers",
		"Workers currently executing, by pool name.",
		obs.Label{Key: "pool", Value: name})
	return p
}

// WorkerPanic is the panic value re-raised by a pool call when one of its
// workers panicked. Value is the original panic value and Stack the
// panicking worker's stack trace. When several workers panic, the first
// recovered one wins.
type WorkerPanic struct {
	Value interface{}
	Stack []byte
}

// Error makes the panic value self-describing in logs and test failures.
func (w *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", w.Value, w.Stack)
}

// Run invokes worker(id) once per pool worker, id in [0, Workers()), and
// waits for all of them. It is the building block for callers with their own
// work distribution (e.g. draining a shared channel). The calling goroutine
// participates as worker 0, so a pool of w workers spawns only w-1
// goroutines. A panic in any worker is re-raised as a *WorkerPanic after the
// remaining workers finish.
func (p *Pool) Run(worker func(id int)) {
	if p.workers == 1 {
		p.busy.Add(1)
		defer p.busy.Add(-1)
		worker(0)
		return
	}
	p.runN(p.workers, worker)
}

// runN invokes worker(id) for id in [0, n), n >= 2: ids 1..n-1 on spawned
// goroutines, id 0 on the calling goroutine. Panics from any of them
// (including the caller's own worker) are deferred until every worker has
// finished, then re-raised as a *WorkerPanic.
func (p *Pool) runN(n int, worker func(id int)) {
	var wg sync.WaitGroup
	var once sync.Once
	var wp *WorkerPanic
	rec := func() {
		if r := recover(); r != nil {
			once.Do(func() { wp = &WorkerPanic{Value: r, Stack: debug.Stack()} })
		}
	}
	for id := 1; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer rec()
			p.busy.Add(1)
			defer p.busy.Add(-1)
			worker(id)
		}(id)
	}
	func() {
		defer rec()
		p.busy.Add(1)
		defer p.busy.Add(-1)
		worker(0)
	}()
	wg.Wait()
	if wp != nil {
		panic(wp)
	}
}

// ForEachChunk partitions [0, n) into contiguous chunks of chunkSize indices
// (the final chunk may be shorter) and calls fn(worker, lo, hi) once per
// chunk, with worker identifying the executing pool worker for per-worker
// scratch. Chunks are claimed dynamically, so a slow chunk does not stall
// the rest.
//
// The chunk boundaries depend only on n and chunkSize — not on the worker
// count — and with one worker the chunks run in increasing index order.
// Callers that write only chunk-local state (indexed by lo/chunkSize or by
// element index) and reduce per-chunk results in chunk order get results
// that are bit-identical at any pool size. It panics if chunkSize < 1.
//
// Dispatch is adaptive: ForEachChunk never runs more workers than there are
// chunks, never more than GOMAXPROCS (chunk bodies are CPU-bound by
// contract, so extra concurrency on a saturated scheduler is pure dispatch
// overhead — the cause of the historical workers=4 < workers=1 regression on
// single-proc runs), and a single effective worker runs the chunks inline in
// increasing order with no goroutines at all. None of this moves a chunk
// boundary, so results are unaffected.
func (p *Pool) ForEachChunk(n, chunkSize int, fn func(worker, lo, hi int)) {
	if chunkSize < 1 {
		panic("parallel: ForEachChunk with chunkSize < 1")
	}
	if n <= 0 {
		return
	}
	nChunks := (n + chunkSize - 1) / chunkSize
	inline := func() {
		for c := 0; c < nChunks; c++ {
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
	}
	if p.workers == 1 || nChunks == 1 {
		inline()
		return
	}
	w := p.workers
	if w > nChunks {
		w = nChunks
	}
	if gmp := runtime.GOMAXPROCS(0); w > gmp {
		w = gmp
	}
	if w == 1 {
		// Single effective worker: no goroutines, but keep the multi-worker
		// pool's panic contract (*WorkerPanic) so callers see one behavior
		// per pool size regardless of GOMAXPROCS.
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*WorkerPanic); ok {
					panic(r)
				}
				panic(&WorkerPanic{Value: r, Stack: debug.Stack()})
			}
		}()
		inline()
		return
	}
	var next int64
	p.runN(w, func(id int) {
		for {
			c := int(atomic.AddInt64(&next, 1)) - 1
			if c >= nChunks {
				return
			}
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			fn(id, lo, hi)
		}
	})
}
