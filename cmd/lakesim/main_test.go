package main

import (
	"testing"

	"enld/internal/lake"
	"enld/internal/lake/cluster"
)

// TestShardLine pins the cluster summary's per-shard line against the two
// cases where the coordinator's down-marker and the status scrape disagree.
func TestShardLine(t *testing.T) {
	st := lake.Status{TasksProcessed: 7, TasksFailed: 1, TasksShed: 2, TasksAbandoned: 3}
	for _, tc := range []struct {
		name string
		sh   cluster.ShardStatus
		want string
	}{
		{
			// Marked up but unreachable: a remote shard that exited after
			// serving its last task.
			name: "up, scrape failed",
			sh:   cluster.ShardStatus{Name: "s0", Up: true, Error: "connection refused"},
			want: "  s0: up, status unavailable (connection refused)",
		},
		{
			name: "down, scraped",
			sh:   cluster.ShardStatus{Name: "s1", Up: false, Status: &st},
			want: "  s1: DOWN processed=7 failed=1 shed=2 abandoned=3",
		},
		{
			name: "up, scraped",
			sh:   cluster.ShardStatus{Name: "s2", Up: true, Status: &st},
			want: "  s2: up processed=7 failed=1 shed=2 abandoned=3",
		},
	} {
		if got := shardLine(tc.sh); got != tc.want {
			t.Errorf("%s: shardLine = %q, want %q", tc.name, got, tc.want)
		}
	}
}
