package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"enld/internal/lake"
	"enld/internal/obs"
)

// Options tunes the coordinator.
type Options struct {
	// MaxInflight bounds concurrently dispatched tasks across the cluster
	// (default 4 × shards): the coordinator is a router, not a queue — the
	// per-shard admission queues are where load control happens.
	MaxInflight int
	// Policy is the inter-node fault story, reusing the lake's resilience
	// vocabulary: BreakerThreshold/BreakerCooldown drive the per-shard
	// down-marker (defaults: threshold 1, cooldown 3s — a shard that fails
	// one submission is down until a probe says otherwise). A failed
	// submission moves on to the rendezvous runner-up; a task that
	// exhausts every shard dead-letters at the coordinator.
	Policy lake.Policy
}

// Coordinator routes a request stream across shards by rendezvous
// placement, reroutes around shards marked down, and aggregates the
// shards' status and metrics into one scatter/gather view. It implements
// the same Run contract as lake.Service, so workload.Play and the load
// harness drive a cluster unchanged.
type Coordinator struct {
	shards   []Shard
	place    *Rendezvous
	breakers []*lake.Breaker
	opts     Options

	o   *coordObs
	reg *obs.Registry
}

// New builds a coordinator over the given shards. Shard names must be
// unique — they are the placement identity.
func New(shards []Shard, opts Options) (*Coordinator, error) {
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.Name()
	}
	place, err := NewRendezvous(names)
	if err != nil {
		return nil, err
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4 * len(shards)
	}
	threshold := opts.Policy.BreakerThreshold
	if threshold <= 0 {
		threshold = 1
	}
	cooldown := opts.Policy.BreakerCooldown
	if cooldown <= 0 {
		cooldown = 3 * time.Second
	}
	c := &Coordinator{
		shards:   shards,
		place:    place,
		breakers: make([]*lake.Breaker, len(shards)),
		opts:     opts,
	}
	for i := range shards {
		c.breakers[i] = lake.NewBreaker(threshold, cooldown)
	}
	return c, nil
}

// SetObs registers the coordinator's own routing metrics on reg. Call
// before Run.
func (c *Coordinator) SetObs(reg *obs.Registry) {
	c.reg = reg
	c.o = newCoordObs(reg, c.place)
	for i, b := range c.breakers {
		c.o.watchBreaker(c.place.Name(i), b)
	}
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Place returns the name of the shard that owns key — exposed so tests and
// audits can check reports against the placement contract.
func (c *Coordinator) Place(key int) string {
	return c.place.Name(c.place.Place(key))
}

// Run consumes the request stream, dispatching each task to its rendezvous
// owner (or, when the owner is down, the runner-up) and returns one report
// per request, sorted by task ID — the exact contract of lake.Service.Run,
// which is what makes the coordinator a drop-in Submitter for the load
// harness. No request is ever silently dropped: the returned reports
// partition into ok/degraded/dead-lettered/shed/abandoned, with Rerouted
// marking tasks served away from their owner.
func (c *Coordinator) Run(ctx context.Context, requests <-chan lake.Request) []lake.Report {
	sem := make(chan struct{}, c.opts.MaxInflight)
	var mu sync.Mutex
	var reports []lake.Report
	var wg sync.WaitGroup

	file := func(rep lake.Report) {
		mu.Lock()
		reports = append(reports, rep)
		mu.Unlock()
	}

	for req := range requests {
		sem <- struct{}{}
		wg.Add(1)
		go func(req lake.Request) {
			defer func() { <-sem; wg.Done() }()
			file(c.dispatch(ctx, req))
		}(req)
	}
	wg.Wait()

	sort.Slice(reports, func(i, j int) bool { return reports[i].TaskID < reports[j].TaskID })
	return reports
}

// dispatch routes one task: rendezvous owner first, then each runner-up in
// rank order as shards prove unavailable. A submission error against one
// shard moves on to the next; a shard whose breaker is open is skipped
// outright. When every shard is exhausted the task dead-letters at the
// coordinator — visibly, in both the report and the cluster metrics.
func (c *Coordinator) dispatch(ctx context.Context, req lake.Request) lake.Report {
	order := c.place.Rank(req.TaskID)
	primary := order[0]
	c.o.placed(c.place.Name(primary))
	var errs []error
	for _, idx := range order {
		name := c.place.Name(idx)
		br := c.breakers[idx]
		if !br.Allow() {
			errs = append(errs, fmt.Errorf("shard %s: breaker open", name))
			continue
		}
		rep, err := c.shards[idx].Submit(ctx, req)
		if err == nil && rep.Abandoned && ctx.Err() == nil {
			// The shard shut down underneath a queued task. Its own books
			// say "abandoned"; cluster-wide the task is still ours to
			// place, so treat it as a shard failure and reroute.
			err = fmt.Errorf("shard %s abandoned task %d: %w", name, rep.TaskID, ErrShardDown)
		}
		if err == nil {
			br.Success()
			rep.Shard = name
			if idx != primary {
				rep.Rerouted = true
				c.o.rerouted(c.place.Name(primary))
			}
			c.o.served(name)
			return rep
		}
		br.Failure()
		errs = append(errs, err)
		if ctx.Err() != nil {
			break
		}
	}
	if ctx.Err() != nil {
		// Shutdown mid-dispatch: accounted, not lost.
		c.o.abandoned()
		return lake.Report{
			TaskID:    req.TaskID,
			Size:      len(req.Data),
			Abandoned: true,
			Err:       fmt.Errorf("cluster: task %d abandoned at shutdown: %w", req.TaskID, ctx.Err()),
		}
	}
	c.o.deadLettered()
	return lake.Report{
		TaskID:       req.TaskID,
		Size:         len(req.Data),
		DeadLettered: true,
		Err:          fmt.Errorf("cluster: task %d: no shard available: %w", req.TaskID, errors.Join(errs...)),
	}
}
