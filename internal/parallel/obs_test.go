package parallel

import (
	"sync/atomic"
	"testing"

	"enld/internal/obs"
)

// TestBusyGaugeDrainsAfterChunks: at any worker count, every index is
// visited and the busy gauge returns to zero once the pool drains.
func TestBusyGaugeDrainsAfterChunks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		p := New(workers).Instrument(reg, "test")
		var visited int64
		p.ForEachChunk(100, 7, func(worker, lo, hi int) {
			atomic.AddInt64(&visited, int64(hi-lo))
		})
		if visited != 100 {
			t.Fatalf("workers=%d visited %d indices, want 100", workers, visited)
		}
		busy := reg.Gauge("enld_pool_busy_workers",
			"Workers currently executing, by pool name.",
			obs.Label{Key: "pool", Value: "test"})
		if got := busy.Value(); got != 0 {
			t.Fatalf("workers=%d busy gauge = %v after drain, want 0", workers, got)
		}
	}
}

// TestInstrumentNilRegistry: an uninstrumented pool and a nil-registry
// instrumented pool behave identically to a plain pool.
func TestInstrumentNilRegistry(t *testing.T) {
	p := New(2).Instrument(nil, "ignored")
	var visited int64
	p.ForEachChunk(10, 3, func(worker, lo, hi int) {
		atomic.AddInt64(&visited, int64(hi-lo))
	})
	if visited != 10 {
		t.Fatalf("visited %d indices, want 10", visited)
	}
	p.Run(func(id int) {})
}

// TestBusyGaugeDuringRun: the busy gauge reflects workers inside a Run body.
func TestBusyGaugeDuringRun(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(3).Instrument(reg, "busy")
	busy := reg.Gauge("enld_pool_busy_workers",
		"Workers currently executing, by pool name.",
		obs.Label{Key: "pool", Value: "busy"})
	var peak int64
	p.Run(func(id int) {
		if v := int64(busy.Value()); v > atomic.LoadInt64(&peak) {
			atomic.StoreInt64(&peak, v)
		}
	})
	if got := busy.Value(); got != 0 {
		t.Fatalf("busy gauge = %v after Run, want 0", got)
	}
	if atomic.LoadInt64(&peak) < 1 {
		t.Fatal("busy gauge never observed a running worker")
	}
}
