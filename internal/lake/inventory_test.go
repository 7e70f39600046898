package lake

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"enld/internal/dataset"
)

// invSet builds a small dataset whose sample IDs start at base.
func invSet(base, n int) dataset.Set {
	out := make(dataset.Set, n)
	for i := range out {
		out[i] = dataset.Sample{ID: base + i, X: []float64{float64(i), 1}, Observed: i % 2, True: i % 2}
	}
	return out
}

// TestInventoryContract exercises the Inventory interface semantics every
// backend must share: append order, ID uniqueness, load round-trips,
// removal, platform snapshot replacement and closed-state errors.
func TestInventoryContract(t *testing.T) {
	// seglog.Log, the other backend, imports this package; its tests live
	// in its own package.
	t.Run("memory", func(t *testing.T) {
		inv := NewMemInventory()
		id1, err := inv.AppendDataset("a", invSet(0, 3))
		if err != nil {
			t.Fatal(err)
		}
		id2, err := inv.AppendDataset("b", invSet(100, 5))
		if err != nil {
			t.Fatal(err)
		}
		if id2 <= id1 {
			t.Fatalf("IDs not increasing: %d then %d", id1, id2)
		}
		metas, err := inv.Datasets()
		if err != nil {
			t.Fatal(err)
		}
		if len(metas) != 2 || metas[0].Name != "a" || metas[1].Name != "b" || metas[1].Size != 5 {
			t.Fatalf("metas = %+v", metas)
		}
		set, err := inv.LoadDataset(id2)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != 5 || set[0].ID != 100 {
			t.Fatalf("loaded %d samples, first ID %d", len(set), set[0].ID)
		}
		if _, err := inv.LoadDataset(9999); err == nil {
			t.Fatal("loading unknown dataset succeeded")
		}

		if _, err := inv.LoadPlatform(); !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("fresh LoadPlatform err = %v, want ErrNoSnapshot", err)
		}
		if err := inv.SavePlatform([]byte("snap-v1")); err != nil {
			t.Fatal(err)
		}
		if err := inv.SavePlatform([]byte("snap-v2")); err != nil {
			t.Fatal(err)
		}
		snap, err := inv.LoadPlatform()
		if err != nil {
			t.Fatal(err)
		}
		if string(snap) != "snap-v2" {
			t.Fatalf("platform snapshot = %q, want snap-v2", snap)
		}

		if err := inv.RemoveDataset(id1); err != nil {
			t.Fatal(err)
		}
		if err := inv.RemoveDataset(id1); err == nil {
			t.Fatal("double remove succeeded")
		}
		metas, err = inv.Datasets()
		if err != nil {
			t.Fatal(err)
		}
		if len(metas) != 1 || metas[0].ID != id2 {
			t.Fatalf("after remove, metas = %+v", metas)
		}

		st := inv.Stats()
		if st.Datasets != 1 || st.Samples != 5 || !st.HasPlatform {
			t.Fatalf("stats = %+v", st)
		}

		if err := inv.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := inv.AppendDataset("c", invSet(0, 1)); !errors.Is(err, ErrInventoryClosed) {
			t.Fatalf("append after close err = %v", err)
		}
		if err := inv.SavePlatform(nil); !errors.Is(err, ErrInventoryClosed) {
			t.Fatalf("save platform after close err = %v", err)
		}

	})
}

// TestServiceDurableAppend: with an inventory attached, every arrival is
// durably recorded before processing — the storage layer sees one dataset
// per task.
func TestServiceDurableAppend(t *testing.T) {
	inv := NewMemInventory()
	svc, err := NewService(flagOdd{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetInventory(inv)
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(4, 3), 0))
	if len(reports) != 4 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("task %d: %v", rep.TaskID, rep.Err)
		}
	}
	metas, err := inv.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 4 {
		t.Fatalf("inventory has %d datasets, want 4", len(metas))
	}
	names := map[string]bool{}
	for _, m := range metas {
		names[m.Name] = true
		if m.Size != 3 {
			t.Fatalf("dataset %s has %d samples, want 3", m.Name, m.Size)
		}
	}
	for i := 0; i < 4; i++ {
		if !names[fmt.Sprintf("task-%d", i)] {
			t.Fatalf("missing task-%d in %v", i, names)
		}
	}
}

// TestServiceDurableAppendFailureDeadLetters: a task whose durable append
// fails must not be processed as if it were stored — it dead-letters with
// the storage error.
func TestServiceDurableAppendFailureDeadLetters(t *testing.T) {
	inv := NewMemInventory()
	if err := inv.Close(); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(flagOdd{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetInventory(inv)
	ctx := context.Background()
	reports := svc.Run(ctx, Feed(ctx, shards(3, 2), 0))
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3 (no task silently dropped)", len(reports))
	}
	for _, rep := range reports {
		if !rep.DeadLettered || !errors.Is(rep.Err, ErrInventoryClosed) {
			t.Fatalf("task %d: dead-lettered=%v err=%v", rep.TaskID, rep.DeadLettered, rep.Err)
		}
	}
}
