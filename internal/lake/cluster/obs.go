package cluster

import "enld/internal/obs"

// coordObs is the coordinator's own routing metrics — distinct from the
// per-shard lake families, which are merged (not shared) across shards.
// Every coordObs method is nil-safe, so an unobserved coordinator pays
// nothing.
type coordObs struct {
	placedC     map[string]*obs.Counter
	servedC     map[string]*obs.Counter
	reroutedOut map[string]*obs.Counter
	up          map[string]*obs.Gauge
	deadLetter  *obs.Counter
	abandon     *obs.Counter
	shards      *obs.Gauge
}

func newCoordObs(reg *obs.Registry, place *Rendezvous) *coordObs {
	if reg == nil {
		return nil
	}
	o := &coordObs{
		placedC:     map[string]*obs.Counter{},
		servedC:     map[string]*obs.Counter{},
		reroutedOut: map[string]*obs.Counter{},
		up:          map[string]*obs.Gauge{},
		deadLetter: reg.Counter("enld_cluster_dead_letter_total",
			"Tasks dead-lettered at the coordinator because no shard could take them."),
		abandon: reg.Counter("enld_cluster_abandoned_total",
			"Tasks abandoned at the coordinator because the cluster shut down mid-dispatch."),
		shards: reg.Gauge("enld_cluster_shards",
			"Shards this coordinator places onto."),
	}
	o.shards.Set(float64(place.Shards()))
	// Pre-register every per-shard series so scrape-time deltas are
	// well-defined from the first exposition, not from first increment.
	for i := 0; i < place.Shards(); i++ {
		name := place.Name(i)
		label := obs.Label{Key: "shard", Value: name}
		o.placedC[name] = reg.Counter("enld_cluster_placed_total",
			"Tasks whose rendezvous owner is this shard.", label)
		o.servedC[name] = reg.Counter("enld_cluster_served_total",
			"Tasks whose final report came from this shard.", label)
		o.reroutedOut[name] = reg.Counter("enld_cluster_rerouted_total",
			"Tasks rerouted away from this shard (their owner) to a runner-up.", label)
		g := reg.Gauge("enld_cluster_shard_up",
			"1 while the coordinator marks the shard up, 0 while it is marked down or probing.", label)
		g.Set(1)
		o.up[name] = g
	}
	return o
}

func (o *coordObs) placed(name string) {
	if o == nil {
		return
	}
	o.placedC[name].Inc()
}

func (o *coordObs) served(name string) {
	if o == nil {
		return
	}
	o.servedC[name].Inc()
}

func (o *coordObs) rerouted(owner string) {
	if o == nil {
		return
	}
	o.reroutedOut[owner].Inc()
}

func (o *coordObs) deadLettered() {
	if o == nil {
		return
	}
	o.deadLetter.Inc()
}

func (o *coordObs) abandoned() {
	if o == nil {
		return
	}
	o.abandon.Inc()
}
