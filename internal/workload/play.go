package workload

import (
	"context"
	"fmt"
	"time"

	"enld/internal/dataset"
	"enld/internal/lake"
	"enld/internal/obs"
)

// PlayOptions tunes replay without changing what is replayed.
type PlayOptions struct {
	// Speed compresses the schedule: 2 submits everything twice as fast as
	// the trace prescribes. 0 means 1 (real time).
	Speed float64
	// Obs, when set, receives the generator's own metrics:
	// enld_load_offered_total counts submitted requests and
	// enld_load_send_lag_seconds records how far behind schedule each
	// submission left the generator — sustained lag means the service is
	// backpressuring the feed (or the generator host is saturated), and the
	// trailing latency percentiles undercount true client-visible delay.
	Obs *obs.Registry
}

// PlayResult is what one replay measured on the generator side, with the
// report stream the system under test returned; Summarize reduces it to the
// scenario's outcomes, latency percentiles and SLO verdict.
type PlayResult struct {
	Reports []lake.Report
	// Offered is how many events were actually submitted (a cancelled
	// context stops the schedule early).
	Offered int
	// WallSeconds is the wall-clock span from first submission to Run
	// returning, in trace time (lag included, speed compression undone) —
	// the denominator for offered/served throughput.
	WallSeconds float64
	// MaxSendLagSeconds is the worst schedule slip observed while
	// submitting, in trace time.
	MaxSendLagSeconds float64
}

// Submitter consumes a request stream and returns exactly one report per
// accepted request, sorted by task ID. lake.Service and the sharded
// cluster.Coordinator both satisfy it, which is what lets one load harness
// drive a single service and a whole cluster identically.
type Submitter interface {
	Run(ctx context.Context, requests <-chan lake.Request) []lake.Report
}

// Play replays the trace against svc: each event submits catalog[entry] at
// its scheduled offset, svc.Run consumes the stream with its configured
// worker count, and the reports come back ordered by task ID. The service
// must not have been started; Play owns its Run lifecycle. Cancelling ctx
// stops submission and drains in-flight work.
func Play(ctx context.Context, svc Submitter, trace *Trace, catalog []dataset.Set, opts PlayOptions) (*PlayResult, error) {
	if svc == nil {
		return nil, fmt.Errorf("workload: nil service")
	}
	speed := opts.Speed
	if speed == 0 {
		speed = 1
	}
	if speed < 0 {
		return nil, fmt.Errorf("workload: negative replay speed %v", speed)
	}
	for _, e := range trace.Events {
		if e.Entry < 0 || e.Entry >= len(catalog) {
			return nil, fmt.Errorf("workload: event %d references catalog entry %d of %d", e.Task, e.Entry, len(catalog))
		}
	}

	var offered *obs.Counter
	var sendLag *obs.Histogram
	if opts.Obs != nil {
		offered = opts.Obs.Counter("enld_load_offered_total",
			"Requests the load generator submitted to the service.")
		sendLag = opts.Obs.Histogram("enld_load_send_lag_seconds",
			"How far behind its scheduled offset each load-generator submission ran (trace time). Sustained lag means the service is backpressuring the feed.",
			obs.DefBuckets)
	}

	requests := make(chan lake.Request)
	done := make(chan []lake.Report, 1)
	go func() { done <- svc.Run(ctx, requests) }()

	res := &PlayResult{}
	start := time.Now()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

submit:
	for _, e := range trace.Events {
		due := start.Add(time.Duration(float64(e.At) / speed))
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break submit
			}
		}
		lag := time.Since(due).Seconds() * speed
		if lag < 0 {
			lag = 0
		}
		if lag > res.MaxSendLagSeconds {
			res.MaxSendLagSeconds = lag
		}
		select {
		case requests <- lake.Request{TaskID: e.Task, Data: catalog[e.Entry]}:
			offered.Inc()
			sendLag.Observe(lag)
			res.Offered++
		case <-ctx.Done():
			break submit
		}
	}
	close(requests)
	res.Reports = <-done
	res.WallSeconds = time.Since(start).Seconds() * speed
	return res, nil
}
