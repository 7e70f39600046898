package cluster

import (
	"context"
	"errors"

	"enld/internal/lake"
)

// ErrShardDown reports a shard that cannot accept submissions: it was
// drained, killed, or its transport is unreachable. The coordinator treats
// it as a routing signal — the task is not lost, it reroutes to the
// rendezvous runner-up.
var ErrShardDown = errors.New("cluster: shard down")

// Shard is one worker of the sharded lake, in-process (ShardWorker) or
// remote (HTTPShard). The coordinator only ever talks through this
// interface, so the cluster topology is a wiring decision, not a code one.
type Shard interface {
	// Name is the shard's stable placement identity: rendezvous hashing
	// scores names, so renaming a shard reassigns its keys.
	Name() string
	// Submit runs one task to completion on the shard and returns its
	// report. A non-nil error means the shard could not account for the
	// task at all (down, unreachable, malformed exchange) and the caller
	// still owns it; task-level failures (dead-letter, shed) travel inside
	// the report with a nil error.
	Submit(ctx context.Context, req lake.Request) (lake.Report, error)
	// Status returns the shard's /statusz snapshot for scatter/gather.
	Status(ctx context.Context) (lake.Status, error)
	// Metrics returns the shard's Prometheus text exposition for
	// scatter/gather merging.
	Metrics(ctx context.Context) ([]byte, error)
	// Drain stops intake, waits for queued and in-flight work to finish,
	// and leaves the shard answering Status/Metrics but refusing Submit
	// with ErrShardDown.
	Drain(ctx context.Context) error
}
