package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"enld/internal/dataset"
	"enld/internal/detect"
	"enld/internal/lake"
	"enld/internal/metrics"
	"enld/internal/obs"
)

// The HTTP transport: a ShardWorker serves POST /submit, GET /statusz,
// GET /metrics and POST /drain; HTTPShard is the coordinator-side client
// implementing Shard over those endpoints. The wire format is JSON with
// strict, size-capped decoding on both sides — the decode path is fuzzed
// (FuzzWireDecode), because it is the one place untrusted bytes enter the
// cluster.

// Wire-format size caps. Submissions carry feature vectors, so their cap is
// generous; status and report documents are small.
const (
	maxSubmitBytes = 64 << 20
	maxReplyBytes  = 8 << 20
)

// wireSample is dataset.Sample on the wire.
type wireSample struct {
	ID       int       `json:"id"`
	X        []float64 `json:"x"`
	Observed int       `json:"observed"`
	True     int       `json:"true"`
}

// wireRequest is lake.Request on the wire.
type wireRequest struct {
	TaskID int          `json:"task_id"`
	Data   []wireSample `json:"data"`
}

// wireReport is lake.Report on the wire. The detector's partition travels
// as ID lists; durations travel as integer nanoseconds.
type wireReport struct {
	TaskID       int               `json:"task_id"`
	Size         int               `json:"size"`
	NoisyIDs     []int             `json:"noisy_ids,omitempty"`
	CleanIDs     []int             `json:"clean_ids,omitempty"`
	Detection    metrics.Detection `json:"detection"`
	QueuedNS     int64             `json:"queued_ns"`
	ProcessNS    int64             `json:"process_ns"`
	Error        string            `json:"error,omitempty"`
	Degraded     bool              `json:"degraded,omitempty"`
	DeadLettered bool              `json:"dead_lettered,omitempty"`
	Shed         bool              `json:"shed,omitempty"`
	Abandoned    bool              `json:"abandoned,omitempty"`
	Tier         string            `json:"tier,omitempty"`
	Shard        string            `json:"shard,omitempty"`
}

// decodeStrict decodes one JSON document from r into v: unknown fields and
// trailing garbage are errors, and r is expected to be size-capped by the
// caller. Strictness here is load-bearing — a lenient decode would let a
// version-skewed or corrupted peer silently drop fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// decodeSubmit parses and validates a wire submission body.
func decodeSubmit(r io.Reader) (lake.Request, error) {
	var wire wireRequest
	if err := decodeStrict(io.LimitReader(r, maxSubmitBytes+1), &wire); err != nil {
		return lake.Request{}, fmt.Errorf("cluster: decode submit: %w", err)
	}
	if wire.TaskID < 0 {
		return lake.Request{}, fmt.Errorf("cluster: decode submit: negative task id %d", wire.TaskID)
	}
	data := make(dataset.Set, len(wire.Data))
	for i, s := range wire.Data {
		data[i] = dataset.Sample{ID: s.ID, X: s.X, Observed: s.Observed, True: s.True}
	}
	return lake.Request{TaskID: wire.TaskID, Data: data}, nil
}

// decodeReport parses a wire report body back into a lake.Report.
func decodeReport(r io.Reader) (lake.Report, error) {
	var wire wireReport
	if err := decodeStrict(io.LimitReader(r, maxReplyBytes+1), &wire); err != nil {
		return lake.Report{}, fmt.Errorf("cluster: decode report: %w", err)
	}
	rep := lake.Report{
		TaskID:       wire.TaskID,
		Size:         wire.Size,
		Detection:    wire.Detection,
		Queued:       time.Duration(wire.QueuedNS),
		Process:      time.Duration(wire.ProcessNS),
		Degraded:     wire.Degraded,
		DeadLettered: wire.DeadLettered,
		Shed:         wire.Shed,
		Abandoned:    wire.Abandoned,
		Tier:         wire.Tier,
		Shard:        wire.Shard,
	}
	if wire.Error != "" {
		rep.Err = errors.New(wire.Error)
	}
	if wire.NoisyIDs != nil || wire.CleanIDs != nil {
		res := &detect.Result{
			Noisy: make(map[int]bool, len(wire.NoisyIDs)),
			Clean: make(map[int]bool, len(wire.CleanIDs)),
		}
		for _, id := range wire.NoisyIDs {
			res.Noisy[id] = true
		}
		for _, id := range wire.CleanIDs {
			res.Clean[id] = true
		}
		res.Process = rep.Process
		rep.Result = res
	}
	return rep, nil
}

// decodeStatus parses a /statusz body.
func decodeStatus(r io.Reader) (lake.Status, error) {
	var st lake.Status
	// Status documents are produced by several repo versions; unknown
	// fields are tolerated here (decodeStrict is for the task-bearing
	// paths) but size and trailing-garbage limits still hold.
	dec := json.NewDecoder(io.LimitReader(r, maxReplyBytes+1))
	if err := dec.Decode(&st); err != nil {
		return lake.Status{}, fmt.Errorf("cluster: decode status: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return lake.Status{}, fmt.Errorf("cluster: decode status: trailing data")
	}
	return st, nil
}

func encodeReport(rep lake.Report) wireReport {
	wire := wireReport{
		TaskID:       rep.TaskID,
		Size:         rep.Size,
		Detection:    rep.Detection,
		QueuedNS:     int64(rep.Queued),
		ProcessNS:    int64(rep.Process),
		Degraded:     rep.Degraded,
		DeadLettered: rep.DeadLettered,
		Shed:         rep.Shed,
		Abandoned:    rep.Abandoned,
		Tier:         rep.Tier,
		Shard:        rep.Shard,
	}
	if rep.Err != nil {
		wire.Error = rep.Err.Error()
	}
	if rep.Result != nil {
		wire.NoisyIDs, wire.CleanIDs = rep.Result.SortedIDs()
	}
	return wire
}

// Handler serves this worker as an HTTP shard: POST /submit, GET /statusz,
// GET /metrics, POST /drain, GET /healthz.
func (w *ShardWorker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		lreq, err := decodeSubmit(http.MaxBytesReader(rw, req.Body, maxSubmitBytes))
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := w.Submit(req.Context(), lreq)
		switch {
		case errors.Is(err, ErrShardDown):
			http.Error(rw, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(encodeReport(rep))
	})
	mux.Handle("/statusz", w.tracker.Handler())
	mux.Handle("/metrics", w.reg.Handler())
	mux.HandleFunc("/drain", func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if err := w.Drain(req.Context()); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(rw, "drained")
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	return mux
}

// HTTPShard is the coordinator-side client for a worker serving Handler().
type HTTPShard struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTPShard points a Shard at a worker's base URL (e.g.
// "http://10.0.0.7:9001"). The name is the placement identity and must
// match across coordinator restarts, or keys reshuffle. Submit carries no
// client timeout — a queued task legitimately waits — while Status,
// Metrics and Drain are bounded per call by the passed context.
func NewHTTPShard(name, baseURL string) *HTTPShard {
	return &HTTPShard{name: name, base: baseURL, client: &http.Client{}}
}

// Name implements Shard.
func (s *HTTPShard) Name() string { return s.name }

// Submit implements Shard over POST /submit. A transport or server-side
// error fails the submission, and the coordinator moves on to the
// rendezvous runner-up; a 503 (drained or killed worker) maps to
// ErrShardDown.
func (s *HTTPShard) Submit(ctx context.Context, req lake.Request) (lake.Report, error) {
	wire := wireRequest{TaskID: req.TaskID, Data: make([]wireSample, len(req.Data))}
	for i, smp := range req.Data {
		wire.Data[i] = wireSample{ID: smp.ID, X: smp.X, Observed: smp.Observed, True: smp.True}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return lake.Report{}, fmt.Errorf("cluster: shard %s: encode submit: %w", s.name, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/submit", bytes.NewReader(body))
	if err != nil {
		return lake.Report{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hreq)
	if err != nil {
		return lake.Report{}, fmt.Errorf("cluster: shard %s: %w", s.name, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return lake.Report{}, fmt.Errorf("cluster: shard %s: %w", s.name, ErrShardDown)
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return lake.Report{}, fmt.Errorf("cluster: shard %s: submit: %s: %s",
			s.name, resp.Status, bytes.TrimSpace(msg))
	}
	rep, err := decodeReport(resp.Body)
	if err != nil {
		return lake.Report{}, fmt.Errorf("cluster: shard %s: %w", s.name, err)
	}
	return rep, nil
}

// Status implements Shard over GET /statusz.
func (s *HTTPShard) Status(ctx context.Context) (lake.Status, error) {
	body, err := s.get(ctx, "/statusz", maxReplyBytes)
	if err != nil {
		return lake.Status{}, err
	}
	return decodeStatus(bytes.NewReader(body))
}

// Metrics implements Shard over GET /metrics: the shard serves text, and
// this is where the cluster parses it back into families.
func (s *HTTPShard) Metrics(ctx context.Context) (obs.Parsed, error) {
	body, err := s.get(ctx, "/metrics", maxReplyBytes)
	if err != nil {
		return nil, err
	}
	parsed, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", s.name, err)
	}
	return parsed, nil
}

// Drain implements Shard over POST /drain.
func (s *HTTPShard) Drain(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/drain", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return fmt.Errorf("cluster: shard %s: %w", s.name, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: shard %s: drain: %s", s.name, resp.Status)
	}
	return nil
}

func (s *HTTPShard) get(ctx context.Context, path string, limit int64) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", s.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: shard %s: %s: %s", s.name, path, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %s: %w", s.name, path, err)
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("cluster: shard %s: %s: reply exceeds %d bytes", s.name, path, limit)
	}
	return body, nil
}
