package lake

import (
	"errors"
	"fmt"
	"sync"

	"enld/internal/dataset"
)

// Inventory is the platform's durable storage: the incremental dataset
// arrivals it has absorbed plus the current platform snapshot (the trained
// general model and its estimates, serialized by the core package). The
// paper's deployment scenario (§I, §IV-A) runs indefinitely, so an
// implementation must survive crashes at any instant: a successful return
// from a mutating call means the mutation is durable, and reopening after a
// kill yields a consistent prefix of the accepted mutations.
//
// Two backends implement it: MemInventory (volatile, for tests and
// benchmarks) and seglog.Log (append-only CRC-framed segment log with
// background compaction, whose memory holds frame positions only, so loads
// read from disk; it also records detection outcomes for crash-resume).
type Inventory interface {
	// AppendDataset durably appends one incremental dataset arrival and
	// returns its assigned ID. IDs are unique and increase with append
	// order.
	AppendDataset(name string, set dataset.Set) (uint64, error)
	// Datasets lists the live datasets in append order.
	Datasets() ([]DatasetMeta, error)
	// LoadDataset returns the samples of one stored dataset.
	LoadDataset(id uint64) (dataset.Set, error)
	// RemoveDataset durably drops a dataset (e.g. after its samples were
	// screened and folded into the platform inventory halves). Removing an
	// unknown ID is an error.
	RemoveDataset(id uint64) error
	// SavePlatform durably replaces the platform snapshot.
	SavePlatform(snapshot []byte) error
	// LoadPlatform returns the current platform snapshot, or ErrNoSnapshot
	// when none has been saved.
	LoadPlatform() ([]byte, error)
	// Stats reports storage counters for monitoring.
	Stats() InventoryStats
	// Close releases the backend's resources; mutating a closed inventory
	// is an error.
	Close() error
}

// ErrNoSnapshot reports a LoadPlatform on an inventory that has never saved
// a platform snapshot.
var ErrNoSnapshot = errors.New("lake: inventory holds no platform snapshot")

// ErrInventoryClosed reports an operation on a closed inventory.
var ErrInventoryClosed = errors.New("lake: inventory is closed")

// DatasetMeta describes one stored dataset.
type DatasetMeta struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	// Size is the dataset's sample count.
	Size int `json:"size"`
}

// InventoryStats reports a backend's storage counters. Fields that a
// backend has no notion of (segments and bytes for the in-memory store)
// stay zero.
type InventoryStats struct {
	// Backend names the implementation: "memory" or "seglog".
	Backend string `json:"backend"`
	// Datasets is the live dataset count; Samples the live sample total.
	Datasets int `json:"datasets"`
	Samples  int `json:"samples"`
	// HasPlatform reports whether a platform snapshot is stored.
	HasPlatform bool `json:"has_platform"`
	// Segments is the on-disk segment-file count.
	Segments int `json:"segments,omitempty"`
	// LiveBytes is the on-disk bytes still reachable; DeadBytes the bytes
	// held by superseded or removed records that compaction can reclaim.
	LiveBytes int64 `json:"live_bytes,omitempty"`
	DeadBytes int64 `json:"dead_bytes,omitempty"`
	// Appends and Compactions count mutations and compaction runs since
	// open.
	Appends     uint64 `json:"appends,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
	// Recovery carries what the last open dropped (torn tail) — zero for
	// a clean open.
	Recovery RecoveryStats `json:"recovery"`
}

// RecoveryStats accounts for what a lenient recovery dropped. A consistent
// store reports the damage it survived instead of silently truncating.
type RecoveryStats struct {
	// TornTail reports that a truncated or corrupted tail record was
	// dropped.
	TornTail bool `json:"torn_tail,omitempty"`
	// DroppedRecords counts record frames dropped at the tail (exact for
	// framed backends; at least 1 when TornTail is set).
	DroppedRecords int `json:"dropped_records,omitempty"`
	// DroppedBytes counts the bytes discarded from the damage offset to
	// the end of the log.
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// Offset is the byte offset the damage started at, within the file
	// named by File.
	Offset int64  `json:"offset,omitempty"`
	File   string `json:"file,omitempty"`
}

// ---------------------------------------------------------------------------
// In-memory backend.

// MemInventory is a volatile Inventory for tests and benchmarks. It is safe
// for concurrent use.
type MemInventory struct {
	mu       sync.Mutex
	nextID   uint64
	order    []uint64
	datasets map[uint64]memDataset
	platform []byte
	appends  uint64
	closed   bool
}

type memDataset struct {
	name    string
	samples dataset.Set
}

// NewMemInventory returns an empty in-memory inventory.
func NewMemInventory() *MemInventory {
	return &MemInventory{datasets: make(map[uint64]memDataset)}
}

// AppendDataset implements Inventory.
func (m *MemInventory) AppendDataset(name string, set dataset.Set) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrInventoryClosed
	}
	m.nextID++
	id := m.nextID
	m.datasets[id] = memDataset{name: name, samples: set.Clone()}
	m.order = append(m.order, id)
	m.appends++
	return id, nil
}

// Datasets implements Inventory.
func (m *MemInventory) Datasets() ([]DatasetMeta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DatasetMeta, 0, len(m.order))
	for _, id := range m.order {
		d := m.datasets[id]
		out = append(out, DatasetMeta{ID: id, Name: d.name, Size: len(d.samples)})
	}
	return out, nil
}

// LoadDataset implements Inventory.
func (m *MemInventory) LoadDataset(id uint64) (dataset.Set, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.datasets[id]
	if !ok {
		return nil, fmt.Errorf("lake: inventory has no dataset %d", id)
	}
	return d.samples.Clone(), nil
}

// RemoveDataset implements Inventory.
func (m *MemInventory) RemoveDataset(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrInventoryClosed
	}
	if _, ok := m.datasets[id]; !ok {
		return fmt.Errorf("lake: inventory has no dataset %d", id)
	}
	delete(m.datasets, id)
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.appends++
	return nil
}

// SavePlatform implements Inventory.
func (m *MemInventory) SavePlatform(snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrInventoryClosed
	}
	m.platform = append([]byte(nil), snapshot...)
	m.appends++
	return nil
}

// LoadPlatform implements Inventory.
func (m *MemInventory) LoadPlatform() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.platform == nil {
		return nil, ErrNoSnapshot
	}
	return append([]byte(nil), m.platform...), nil
}

// Stats implements Inventory.
func (m *MemInventory) Stats() InventoryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := InventoryStats{
		Backend:     "memory",
		Datasets:    len(m.order),
		HasPlatform: m.platform != nil,
		Appends:     m.appends,
	}
	for _, id := range m.order {
		st.Samples += len(m.datasets[id].samples)
	}
	return st
}

// Close implements Inventory.
func (m *MemInventory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
