package main

import (
	"fmt"
	"path/filepath"
	"time"

	"enld/internal/dataset"
	"enld/internal/lake"
	"enld/internal/lake/seglog"
)

// readSide is what the ingest workload measured after the replay: the
// storage layer's removes, compaction, recovery and reads.
type readSide struct {
	stats                           lake.InventoryStats // before any remove
	userBytes                       int64
	removeBusy, compact, open, load time.Duration
	removed, live, recovered        int
	violations                      []string
}

// ingestReadSide removes every other dataset, compacts, closes, reopens the
// log (recovery replay) and loads every live dataset, comparing what comes
// back with what the service acknowledged.
func ingestReadSide(sys *system, p *platform, reports []lake.Report) (*readSide, error) {
	lg := sys.logs[0]
	rs := &readSide{stats: lg.Stats()}
	metas, err := lg.Datasets()
	if err != nil {
		return nil, err
	}

	// What must be there: one record per task the service completed.
	acked := make(map[int]bool)
	for _, rep := range reports {
		if rep.Err == nil && rep.Result != nil {
			acked[rep.TaskID] = true
		}
	}
	stored := make(map[int]bool, len(metas))
	taskOf := make(map[uint64]int, len(metas))
	for _, m := range metas {
		task, ok := taskOfRecord(m.Name)
		if !ok || task < 0 || task >= len(p.events) {
			rs.violations = append(rs.violations, fmt.Sprintf("stored dataset %d has unexpected name %q", m.ID, m.Name))
			continue
		}
		stored[task] = true
		taskOf[m.ID] = task
		rs.userBytes += userBytes(p.data(task))
	}
	for task := range acked {
		if !stored[task] {
			rs.violations = append(rs.violations, fmt.Sprintf("task %d was acknowledged but is not in the inventory", task))
		}
	}

	removed := make(map[uint64]bool)
	for i, m := range metas {
		if i%2 == 1 {
			t0 := time.Now()
			if err := lg.RemoveDataset(m.ID); err != nil {
				return nil, fmt.Errorf("remove dataset %d: %w", m.ID, err)
			}
			rs.removeBusy += time.Since(t0)
			removed[m.ID] = true
		}
	}
	rs.removed = len(removed)
	rs.live = len(metas) - len(removed)

	t0 := time.Now()
	if err := lg.Compact(); err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	rs.compact = time.Since(t0)
	if err := lg.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	t0 = time.Now()
	re, err := seglog.Open(filepath.Join(sys.dir, "seglog"), seglog.Options{})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	rs.open = time.Since(t0)
	defer re.Close()

	after, err := re.Datasets()
	if err != nil {
		return nil, err
	}
	rs.recovered = len(after)
	for _, m := range after {
		if removed[m.ID] {
			rs.violations = append(rs.violations, fmt.Sprintf("dataset %d was removed but came back after recovery", m.ID))
			continue
		}
		t0 = time.Now()
		got, err := re.LoadDataset(m.ID)
		rs.load += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("load dataset %d: %w", m.ID, err)
		}
		task, ok := taskOf[m.ID]
		if !ok {
			continue // already reported above
		}
		if !sameSamples(got, p.data(task)) {
			rs.violations = append(rs.violations, fmt.Sprintf("dataset %d (task %d) read back different from what was appended", m.ID, task))
		}
	}
	if rs.recovered != rs.live {
		rs.violations = append(rs.violations, fmt.Sprintf("recovery yielded %d datasets, %d were live", rs.recovered, rs.live))
	}
	for id := range removed {
		if _, err := re.LoadDataset(id); err == nil {
			rs.violations = append(rs.violations, fmt.Sprintf("removed dataset %d is still loadable", id))
		}
	}
	return rs, nil
}

// userBytes is the payload of a dataset as a user counts it: 8 bytes per
// feature and per ID and label field.
func userBytes(d dataset.Set) int64 {
	n := int64(0)
	for _, s := range d {
		n += int64(8*len(s.X) + 3*8)
	}
	return n
}

func sameSamples(a, b dataset.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Observed != b[i].Observed || a[i].True != b[i].True || len(a[i].X) != len(b[i].X) {
			return false
		}
		for j, x := range a[i].X {
			if x != b[i].X[j] {
				return false
			}
		}
	}
	return true
}
