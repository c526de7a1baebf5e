// Package fleet orchestrates an experiment run end-to-end against N
// dsarpd workers, with no shared-filesystem assumption at the dispatch
// layer: every spec travels as JSON over POST /v1/sim and every result
// comes back in the response body.
//
// The orchestrator owns the run's fault story:
//
//   - workers are health-checked (GET /healthz for liveness, GET /v1/stats
//     for queue depth) and each spec is dispatched to the least-loaded
//     live worker;
//   - 429 (honoring Retry-After), 5xx, timeouts, dropped connections, and
//     worker death are transient: the spec is re-dispatched — to a
//     survivor when its worker died — under capped exponential backoff
//     with jitter;
//   - 400 and 413 are permanent: they fail the spec, not the run, and are
//     reported together when the run finishes;
//   - an orchestrator restart resumes from its local result store
//     instead of recomputing: specs already there are never dispatched,
//     and a spec dispatched again is a warm hit on a worker that holds it.
//
// Because every result is a pure content-addressed function of its spec,
// re-dispatching is always safe: a worker that already holds the result
// serves it from its store, and the assembled table is byte-identical to
// a single-node run however many retries, deaths, and restarts happened
// in between.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/ring"
	"dsarp/internal/sim"
	"dsarp/internal/store"
	"dsarp/internal/telemetry"
)

// Config assembles an Orchestrator.
type Config struct {
	// Workers are the dsarpd base URLs ("http://host:port"). At least one
	// is required; any single one may die and restart mid-run.
	Workers []string
	// Client performs all HTTP requests (default: http.DefaultTransport
	// behind a fresh client; per-request timeouts come from
	// RequestTimeout/ProbeTimeout).
	Client *http.Client
	// RequestTimeout bounds one dispatch attempt, simulation included
	// (default 10m). A worker stalled past it is treated as dead and the
	// spec re-dispatched — safe, because results are content-addressed.
	RequestTimeout time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// HealthInterval is the probe period (default 1s).
	HealthInterval time.Duration
	// BaseBackoff/MaxBackoff shape the capped exponential backoff applied
	// to transient failures (defaults 250ms / 5s), jittered by ±50%. A
	// server-sent Retry-After overrides the computed delay when larger.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts caps transient retries per spec; 0 means retry until
	// the context is cancelled (worker death is expected to be temporary;
	// the context carries the run-level deadline).
	MaxAttempts int
	// Concurrency bounds specs in flight across the fleet (default
	// 4 × len(Workers)).
	Concurrency int
	// Replicas is the warm-store replication factor the workers were
	// started with (default 2). Dispatch is ring-affine: each spec
	// prefers its key's owners under rendezvous hashing over Workers, so
	// warm state accumulates exactly where a future read-through will
	// look. Purely a placement preference — correctness never depends on
	// it, and any live worker still serves any spec.
	Replicas int
	// Store, if non-nil, is an orchestrator-local result store: fetched
	// results are persisted to it, and specs already present are not
	// dispatched at all. Rerunning an interrupted run over the same store
	// resumes it.
	Store *store.Store
	// Seed makes backoff jitter reproducible (tests).
	Seed int64
	// Log, if non-nil, receives progress and fault-path narration as
	// structured records; every line carries run/trace plus the relevant
	// spec-key and worker attrs.
	Log *slog.Logger
	// Trace, if non-nil, is the run's flight recorder: the orchestrator
	// mints a trace ID, stamps every dispatch with it (the X-Dsarp-Trace
	// header carries it to the workers), and appends one span per state
	// transition — the file -trace-report replays.
	Trace *telemetry.Recorder
	// Progress, if positive, is the heartbeat period: a progress line
	// (done/total, computed vs warm split, retries, failures, ETA) is
	// logged at that interval instead of silence until the final summary.
	Progress time.Duration
}

// Stats are the orchestrator's run counters.
type Stats struct {
	LocalHits  int64 // specs satisfied by the local store, never dispatched
	Dispatched int64 // specs satisfied by a worker round-trip
	Computed   int64 // dispatched specs the worker actually simulated (source "computed")
	Affine     int64 // dispatches that landed on one of the spec's ring owners
	Retries    int64 // transient failures that led to a re-dispatch
	Failed     int64 // specs that failed permanently
	// Transitions counts worker health flips (up->down and down->up)
	// observed by probes and dispatch-time death discoveries.
	Transitions int64
	// RetryCauses splits Retries by classified cause: conn, timeout,
	// 429, 503, 5xx, malformed, http.
	RetryCauses map[string]int64
}

// worker is the orchestrator's view of one dsarpd.
type worker struct {
	url string

	mu       sync.Mutex
	alive    bool
	probed   bool // at least one probe completed (avoid "down" logs at startup)
	degraded bool // worker self-reports degraded (read-only store / journal loss)
	backlog  int  // worker-reported queued+running tasks (best effort)
	inflight int  // this orchestrator's outstanding dispatches
}

// load orders workers for dispatch: our own in-flight requests plus the
// backlog the worker last reported (which covers other clients too).
func (w *worker) load() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight + w.backlog
}

func (w *worker) isAlive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
}

func (w *worker) isDegraded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.degraded
}

// Orchestrator dispatches specs across a fleet of dsarpd workers. Safe
// for one Run at a time.
type Orchestrator struct {
	cfg     Config
	client  *http.Client
	workers []*worker
	byURL   map[string]*worker
	ring    *ring.Ring // placement over the normalized worker URLs
	log     *slog.Logger
	trace   *telemetry.Recorder
	traceID string // minted per Run, sent as X-Dsarp-Trace on every dispatch

	rngMu sync.Mutex
	rng   *rand.Rand

	localHits   atomic.Int64
	dispatched  atomic.Int64
	computed    atomic.Int64
	affine      atomic.Int64
	retries     atomic.Int64
	failedN     atomic.Int64
	transitions atomic.Int64

	causeMu     sync.Mutex
	retryCauses map[string]int64

	ewmaMu       sync.Mutex
	dispatchEWMA float64 // EWMA of one successful dispatch round-trip, seconds
}

// New validates the config and builds an Orchestrator.
func New(cfg Config) (*Orchestrator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no workers")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Minute
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 250 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4 * len(cfg.Workers)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	o := &Orchestrator{
		cfg:         cfg,
		client:      cfg.Client,
		log:         cfg.Log,
		trace:       cfg.Trace,
		retryCauses: map[string]int64{},
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
	if o.client == nil {
		o.client = &http.Client{}
	}
	if o.log == nil {
		o.log = telemetry.DiscardLogger()
	}
	o.byURL = make(map[string]*worker, len(cfg.Workers))
	for _, u := range cfg.Workers {
		w := &worker{url: strings.TrimRight(u, "/")}
		o.workers = append(o.workers, w)
		o.byURL[w.url] = w
	}
	urls := make([]string, 0, len(o.byURL))
	for u := range o.byURL {
		urls = append(urls, u)
	}
	// Normalized URLs double as ring member IDs, the same convention
	// dsarpd -self/-peers uses, so orchestrator affinity and worker
	// replication agree on placement without a separate naming scheme.
	o.ring = ring.New(urls)
	return o, nil
}

// Stats returns the orchestrator's counters.
func (o *Orchestrator) Stats() Stats {
	o.causeMu.Lock()
	causes := make(map[string]int64, len(o.retryCauses))
	for k, v := range o.retryCauses {
		causes[k] = v
	}
	o.causeMu.Unlock()
	return Stats{
		LocalHits:   o.localHits.Load(),
		Dispatched:  o.dispatched.Load(),
		Computed:    o.computed.Load(),
		Affine:      o.affine.Load(),
		Retries:     o.retries.Load(),
		Failed:      o.failedN.Load(),
		Transitions: o.transitions.Load(),
		RetryCauses: causes,
	}
}

// noteRetry books one transient failure under its classified cause.
func (o *Orchestrator) noteRetry(cause string) {
	o.retries.Add(1)
	o.causeMu.Lock()
	o.retryCauses[cause]++
	o.causeMu.Unlock()
}

// noteDispatchSecs feeds one successful dispatch round-trip into the
// EWMA behind the progress heartbeat's ETA.
func (o *Orchestrator) noteDispatchSecs(secs float64) {
	o.ewmaMu.Lock()
	if o.dispatchEWMA == 0 {
		o.dispatchEWMA = secs
	} else {
		o.dispatchEWMA = 0.7*o.dispatchEWMA + 0.3*secs
	}
	o.ewmaMu.Unlock()
}

// span stamps the run's trace ID onto s and records it; a no-op without
// a flight recorder.
func (o *Orchestrator) span(s telemetry.Span) {
	if o.trace == nil {
		return
	}
	s.Trace = o.traceID
	o.trace.Record(s)
}

// SpecError is one spec's permanent failure.
type SpecError struct {
	Index int
	Label string
	Key   store.Key
	Err   error
}

func (e SpecError) Error() string {
	return fmt.Sprintf("spec %d (%s): %v", e.Index, e.Label, e.Err)
}

// RunError reports the specs that failed permanently. The run itself
// completed: every other spec's result is in the returned Results.
type RunError struct {
	Failed []SpecError
}

func (e *RunError) Error() string {
	msgs := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		msgs[i] = f.Error()
	}
	return fmt.Sprintf("fleet: %d specs failed permanently: %s", len(e.Failed), strings.Join(msgs, "; "))
}

// Run dispatches every spec and returns the result map Assemble consumes.
// Specs must be canonical (registry enumerations are). On permanent spec
// failures the partial Results are returned together with a *RunError; on
// context cancellation the error wraps ctx.Err(), and rerunning over the
// same local store resumes the run.
func (o *Orchestrator) Run(ctx context.Context, name string, specs []exp.SimSpec) (exp.Results, error) {
	o.traceID = telemetry.NewTraceID()
	o.log = o.log.With("run", name, "trace", o.traceID)
	o.span(telemetry.Span{Kind: telemetry.SpanRun, Name: name, Schema: exp.SchemaVersion, Total: len(specs)})
	keys := make([]store.Key, len(specs))
	for i, s := range specs {
		keys[i] = s.Key()
	}

	results := make(exp.Results, len(specs))
	var resMu sync.Mutex

	// Warm-resume pass: a spec whose result is already in the local store
	// is done before the first byte hits the network. Any other spec is
	// dispatched, even one an earlier run finished on some worker — the
	// table needs the payload — and that re-dispatch is a warm store hit
	// on the worker, not a recompute.
	var pending []int
	for i := range specs {
		if o.cfg.Store != nil {
			if data, ok := o.cfg.Store.Get(keys[i]); ok {
				if res, err := exp.DecodeResult(data); err == nil {
					resMu.Lock()
					results[keys[i]] = res
					resMu.Unlock()
					o.localHits.Add(1)
					o.span(telemetry.Span{Kind: telemetry.SpanResult, Spec: keys[i].String(),
						Label: specLabel(specs[i]), Source: "local-store"})
					continue
				}
			}
		}
		pending = append(pending, i)
	}
	o.log.Info("run start", "specs", len(specs), "warm", len(specs)-len(pending), "workers", len(o.workers))

	if len(pending) > 0 {
		hctx, hcancel := context.WithCancel(ctx)
		defer hcancel()
		o.probeAll(hctx) // synchronous first probe so dispatch starts informed
		go o.healthLoop(hctx)
		if o.cfg.Progress > 0 {
			go o.heartbeat(hctx, len(specs))
		}

		var (
			wg      sync.WaitGroup
			failMu  sync.Mutex
			failed  []SpecError
			queue   = make(chan int)
			workers = min(o.cfg.Concurrency, len(pending))
		)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range queue {
					res, raw, err := o.runSpec(ctx, specs[idx], keys[idx])
					switch {
					case err == nil:
						resMu.Lock()
						results[keys[idx]] = res
						resMu.Unlock()
						if o.cfg.Store != nil {
							o.cfg.Store.Put(keys[idx], raw)
						}
					case ctx.Err() != nil:
						// Cancelled mid-spec: reported once, below.
					default:
						o.failedN.Add(1)
						failMu.Lock()
						failed = append(failed, SpecError{
							Index: idx, Label: specLabel(specs[idx]), Key: keys[idx], Err: err,
						})
						failMu.Unlock()
					}
				}
			}()
		}
	feed:
		for _, idx := range pending {
			select {
			case queue <- idx:
			case <-ctx.Done():
				break feed
			}
		}
		close(queue)
		wg.Wait()

		if err := ctx.Err(); err != nil {
			resume := ""
			if o.cfg.Store != nil {
				resume = fmt.Sprintf(" (rerunning over store %s resumes this run)", o.cfg.Store.Dir())
			}
			return results, fmt.Errorf("fleet: run %s interrupted: %w%s", name, err, resume)
		}
		if len(failed) > 0 {
			sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
			return results, &RunError{Failed: failed}
		}
	}
	return results, nil
}

// RunExperiment reproduces one registry experiment on the fleet:
// enumerate with the runner's scale, dispatch every spec, assemble the
// table locally. The runner executes no simulations.
func (o *Orchestrator) RunExperiment(ctx context.Context, r *exp.Runner, name string) (fmt.Stringer, error) {
	e, ok := exp.LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown experiment %q", name)
	}
	res, err := o.Run(ctx, name, e.Specs(r))
	if err != nil {
		return nil, err
	}
	return e.Assemble(r, res)
}

// runSpec drives one spec to a terminal state: retry transient failures
// against the spec's ring owners (falling back through the fleet), give
// up only on permanent errors (or MaxAttempts, or context cancellation).
func (o *Orchestrator) runSpec(ctx context.Context, spec exp.SimSpec, key store.Key) (sim.Result, []byte, error) {
	label := specLabel(spec)
	for attempt := 0; ; attempt++ {
		w, err := o.pickWorker(ctx, key)
		if err != nil {
			return sim.Result{}, nil, err
		}
		start := time.Now()
		res, raw, src, resumedFrom, retryAfter, cause, err := o.post(ctx, w, spec)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if err == nil {
			o.span(telemetry.Span{Kind: telemetry.SpanAttempt, Spec: key.String(), Label: label,
				Attempt: attempt + 1, Worker: w.url, Status: "ok", Millis: ms})
			o.span(telemetry.Span{Kind: telemetry.SpanResult, Spec: key.String(), Label: label,
				Worker: w.url, Source: src, ResumedFrom: resumedFrom})
			o.noteDispatchSecs(time.Since(start).Seconds())
			o.dispatched.Add(1)
			if src == "computed" {
				o.computed.Add(1)
			}
			return res, raw, nil
		}
		o.span(telemetry.Span{Kind: telemetry.SpanAttempt, Spec: key.String(), Label: label,
			Attempt: attempt + 1, Worker: w.url, Status: cause, Millis: ms})
		var perm *permanentError
		if errors.As(err, &perm) {
			o.log.Warn("spec failed permanently", "spec", label, "key", key.String(), "worker", w.url, "err", err)
			o.span(telemetry.Span{Kind: telemetry.SpanResult, Spec: key.String(), Label: label,
				Worker: w.url, Status: "failed", Error: err.Error()})
			return sim.Result{}, nil, err
		}
		if ctx.Err() != nil {
			return sim.Result{}, nil, ctx.Err()
		}
		o.noteRetry(cause)
		if o.cfg.MaxAttempts > 0 && attempt+1 >= o.cfg.MaxAttempts {
			err = fmt.Errorf("fleet: gave up after %d attempts: %w", o.cfg.MaxAttempts, err)
			o.span(telemetry.Span{Kind: telemetry.SpanResult, Spec: key.String(), Label: label,
				Worker: w.url, Status: "failed", Error: err.Error()})
			return sim.Result{}, nil, err
		}
		delay := o.backoff(attempt)
		if retryAfter > delay {
			delay = retryAfter
		}
		o.log.Info("retrying", "spec", label, "key", key.String(), "worker", w.url,
			"cause", cause, "err", err, "delay", delay.Round(time.Millisecond))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return sim.Result{}, nil, ctx.Err()
		}
	}
}

// heartbeat logs a progress line every cfg.Progress until ctx ends:
// done/total, the computed vs warm split, retry and failure counts, and
// an ETA extrapolated from the per-dispatch round-trip EWMA across the
// configured concurrency.
func (o *Orchestrator) heartbeat(ctx context.Context, total int) {
	t := time.NewTicker(o.cfg.Progress)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			warm := o.localHits.Load()
			disp := o.dispatched.Load()
			comp := o.computed.Load()
			failed := o.failedN.Load()
			done := warm + disp + failed
			attrs := []any{
				"done", done, "total", total,
				"computed", comp, "warm", warm + disp - comp,
				"retries", o.retries.Load(), "failed", failed,
			}
			o.ewmaMu.Lock()
			perDispatch := o.dispatchEWMA
			o.ewmaMu.Unlock()
			if remaining := int64(total) - done; remaining > 0 && perDispatch > 0 {
				eta := time.Duration(float64(remaining) * perDispatch / float64(o.cfg.Concurrency) * float64(time.Second))
				attrs = append(attrs, "eta", eta.Round(time.Second))
			}
			o.log.Info("progress", attrs...)
		}
	}
}

// permanentError marks failures that retrying cannot fix (400, 413): the
// spec itself is at fault, not the fleet.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// post performs one dispatch attempt. The error classification is the
// heart of the fault story:
//
//	nil                         success; result decoded
//	*permanentError             400/413 — fail the spec
//	anything else               transient — back off and re-dispatch
//
// A returned retryAfter > 0 is the worker's own wait estimate (429/503).
// On success the worker-reported source ("computed", "store", "memory",
// "peer") comes back too — the fleet's measure of cache effectiveness.
// On failure, cause names the class for the retry tally and the trace:
// conn, timeout, 429, 503, 5xx, http, malformed, or permanent.
func (o *Orchestrator) post(ctx context.Context, w *worker, spec exp.SimSpec) (_ sim.Result, _ []byte, src string, resumedFrom int64, retryAfter time.Duration, cause string, _ error) {
	w.mu.Lock()
	w.inflight++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inflight--
		w.mu.Unlock()
	}()

	body, err := json.Marshal(spec)
	if err != nil {
		return sim.Result{}, nil, "", 0, 0, "permanent", &permanentError{fmt.Errorf("marshal spec: %w", err)}
	}
	rctx, cancel := context.WithTimeout(ctx, o.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url+"/v1/sim", strings.NewReader(string(body)))
	if err != nil {
		return sim.Result{}, nil, "", 0, 0, "permanent", &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	if o.traceID != "" {
		req.Header.Set(telemetry.TraceHeader, o.traceID)
	}
	resp, err := o.client.Do(req)
	if err != nil {
		// Connection refused, reset, timeout: the worker is gone or
		// wedged. Mark it dead now instead of waiting for the next probe.
		o.markDead(w, err)
		cause = "conn"
		if errors.Is(err, context.DeadlineExceeded) {
			cause = "timeout"
		}
		return sim.Result{}, nil, "", 0, 0, cause, fmt.Errorf("worker %s: %w", w.url, err)
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		var sr struct {
			Key         string          `json:"key"`
			Source      string          `json:"source"`
			ResumedFrom int64           `json:"resumed_from"`
			Result      json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return sim.Result{}, nil, "", 0, 0, "malformed", fmt.Errorf("worker %s: malformed response: %w", w.url, err)
		}
		res, err := exp.DecodeResult(sr.Result)
		if err != nil {
			return sim.Result{}, nil, "", 0, 0, "malformed", fmt.Errorf("worker %s: undecodable result: %w", w.url, err)
		}
		return res, sr.Result, sr.Source, sr.ResumedFrom, 0, "", nil
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		return sim.Result{}, nil, "", 0, 0, "permanent", &permanentError{fmt.Errorf("worker %s: %s: %s", w.url, resp.Status, errorBody(resp))}
	case http.StatusTooManyRequests:
		// Backpressure: the worker is alive, just full. Honor its wait
		// estimate and count its load so the next pick prefers a sibling.
		return sim.Result{}, nil, "", 0, retryAfterOf(resp), "429", fmt.Errorf("worker %s: %s", w.url, resp.Status)
	case http.StatusServiceUnavailable:
		// Draining: it will be gone shortly. Prefer survivors.
		o.markDead(w, errors.New(resp.Status))
		return sim.Result{}, nil, "", 0, retryAfterOf(resp), "503", fmt.Errorf("worker %s: %s", w.url, resp.Status)
	default:
		cause = "http"
		if resp.StatusCode >= 500 {
			cause = "5xx"
		}
		return sim.Result{}, nil, "", 0, 0, cause, fmt.Errorf("worker %s: %s: %s", w.url, resp.Status, errorBody(resp))
	}
}

// retryAfterOf parses a Retry-After header, capped so a confused server
// cannot stall the run.
func retryAfterOf(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	return min(time.Duration(secs)*time.Second, 30*time.Second)
}

func errorBody(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return e.Error
	}
	return "(no error body)"
}

// backoff returns the capped exponential delay for the given attempt,
// jittered to ±50% so a fleet-wide failure does not resynchronize every
// pending spec into one thundering retry.
func (o *Orchestrator) backoff(attempt int) time.Duration {
	d := o.cfg.BaseBackoff << min(attempt, 16)
	if d > o.cfg.MaxBackoff || d <= 0 {
		d = o.cfg.MaxBackoff
	}
	o.rngMu.Lock()
	f := 0.5 + o.rng.Float64()
	o.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// pickWorker returns the best live worker for the key, waiting (and
// re-probing) while the whole fleet is down. The order is ring-affine:
//
//  1. the key's owners (rendezvous order) that are alive and healthy —
//     dispatching there lands the result exactly where the workers'
//     own replication ring and any future read-through will look;
//  2. the least-loaded live healthy non-owner (warm state still reaches
//     the owners via the worker's async push);
//  3. degraded owners, then the least-loaded degraded worker — they
//     compute correctly but can't persist, so every result they serve
//     is a future cache miss; last resort only.
func (o *Orchestrator) pickWorker(ctx context.Context, key store.Key) (*worker, error) {
	warned := false
	for {
		if w := o.pickOnce(key); w != nil {
			if o.ring.IsOwner(key, o.cfg.Replicas, w.url) {
				o.affine.Add(1)
			}
			return w, nil
		}
		if !warned {
			o.log.Warn("all workers down; waiting for one to come back", "workers", len(o.workers))
			warned = true
		}
		select {
		case <-time.After(o.cfg.HealthInterval):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		o.probeAll(ctx)
	}
}

// pickOnce applies the affinity order against the current health view;
// nil means the whole fleet is down right now.
func (o *Orchestrator) pickOnce(key store.Key) *worker {
	owners := o.ring.Owners(key, o.cfg.Replicas)
	for _, u := range owners {
		if w := o.byURL[u]; w.isAlive() && !w.isDegraded() {
			return w
		}
	}
	var best, bestDegraded *worker
	for _, w := range o.workers {
		if !w.isAlive() {
			continue
		}
		if w.isDegraded() {
			if bestDegraded == nil || w.load() < bestDegraded.load() {
				bestDegraded = w
			}
			continue
		}
		if best == nil || w.load() < best.load() {
			best = w
		}
	}
	if best != nil {
		return best
	}
	for _, u := range owners {
		if w := o.byURL[u]; w.isAlive() {
			return w
		}
	}
	return bestDegraded
}

// healthLoop re-probes every worker at HealthInterval until ctx ends.
func (o *Orchestrator) healthLoop(ctx context.Context) {
	t := time.NewTicker(o.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			o.probeAll(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// probeAll health-checks every worker concurrently.
func (o *Orchestrator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range o.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			o.probe(ctx, w)
		}(w)
	}
	wg.Wait()
}

// probe checks one worker: /healthz decides liveness, /v1/stats (best
// effort) refreshes the backlog estimate behind least-loaded dispatch.
func (o *Orchestrator) probe(ctx context.Context, w *worker) {
	pctx, cancel := context.WithTimeout(ctx, o.cfg.ProbeTimeout)
	defer cancel()
	ok := o.getOK(pctx, w.url+"/healthz", nil)
	backlog := 0
	degraded := false
	if ok {
		var stats struct {
			QueueFree int  `json:"queue_free"`
			QueueCap  int  `json:"queue_cap"`
			Draining  bool `json:"draining"`
			Degraded  bool `json:"degraded"`
		}
		if o.getOK(pctx, w.url+"/v1/stats", &stats) {
			backlog = stats.QueueCap - stats.QueueFree
			degraded = stats.Degraded
			if stats.Draining {
				ok = false // refusing new work: as good as down for dispatch
			}
		}
	}
	w.mu.Lock()
	wasAlive, hadProbe, wasDegraded := w.alive, w.probed, w.degraded
	w.alive, w.probed = ok, true
	if ok {
		w.backlog = backlog
		w.degraded = degraded
	}
	w.mu.Unlock()
	if ok != wasAlive || !hadProbe {
		if hadProbe {
			o.transitions.Add(1)
		}
		if ok {
			o.log.Info("worker is up", "worker", w.url)
		} else {
			o.log.Warn("worker is down", "worker", w.url)
		}
	}
	if ok && degraded != wasDegraded {
		if degraded {
			o.log.Warn("worker is degraded; deprioritizing", "worker", w.url)
		} else {
			o.log.Info("worker recovered from degraded", "worker", w.url)
		}
	}
}

// getOK fetches url and optionally decodes its JSON body, reporting
// success.
func (o *Orchestrator) getOK(ctx context.Context, url string, v any) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := o.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if v != nil && json.NewDecoder(resp.Body).Decode(v) != nil {
		return false
	}
	return true
}

// ReplicationSummary polls every reachable worker's /v1/stats and folds
// the replication sections into one line ("" and false when no worker
// reports one, i.e. the fleet runs without a peer tier). Best effort:
// dead workers are skipped, since the numbers are observability, not
// state.
func (o *Orchestrator) ReplicationSummary(ctx context.Context) (string, bool) {
	type repl struct {
		FetchHits       int64 `json:"fetch_hits"`
		FetchMisses     int64 `json:"fetch_misses"`
		PushOK          int64 `json:"push_ok"`
		PushFails       int64 `json:"push_fails"`
		CorruptRejected int64 `json:"corrupt_rejected"`
		Replicas        int   `json:"replicas"`
	}
	var agg repl
	reporting := 0
	for _, w := range o.workers {
		var stats struct {
			Replication *repl `json:"replication"`
		}
		pctx, cancel := context.WithTimeout(ctx, o.cfg.ProbeTimeout)
		ok := o.getOK(pctx, w.url+"/v1/stats", &stats)
		cancel()
		if !ok || stats.Replication == nil {
			continue
		}
		reporting++
		agg.FetchHits += stats.Replication.FetchHits
		agg.FetchMisses += stats.Replication.FetchMisses
		agg.PushOK += stats.Replication.PushOK
		agg.PushFails += stats.Replication.PushFails
		agg.CorruptRejected += stats.Replication.CorruptRejected
		agg.Replicas = stats.Replication.Replicas
	}
	if reporting == 0 {
		return "", false
	}
	return fmt.Sprintf("replication: R=%d across %d/%d workers, peer fetch %d hit / %d miss, push %d ok / %d failed, %d corrupt rejected",
		agg.Replicas, reporting, len(o.workers), agg.FetchHits, agg.FetchMisses, agg.PushOK, agg.PushFails, agg.CorruptRejected), true
}

// markDead records a dispatch-time discovery that a worker is gone; the
// health loop revives it when it answers probes again.
func (o *Orchestrator) markDead(w *worker, err error) {
	w.mu.Lock()
	was := w.alive
	w.alive = false
	w.mu.Unlock()
	if was {
		o.transitions.Add(1)
		o.log.Warn("worker marked down", "worker", w.url, "err", err)
	}
}

func specLabel(s exp.SimSpec) string {
	label := s.Name + " " + s.Mechanism + " " + strconv.Itoa(s.DensityGb) + "Gb"
	if s.Variant != "" {
		label += " " + s.Variant
	}
	return label
}
