// Package serve exposes the simulator as an HTTP service: single
// simulations, batched sweeps with job tracking and SSE progress, all
// deduplicated through the runner's singleflight layer and persisted in
// the content-addressed result store.
//
// API (all request/response bodies are JSON unless noted):
//
//	POST /v1/sim            one exp.SimSpec -> {key, source, cached, result}
//	POST /v1/sweep          {specs: [...]}  -> 202 {id, total, ...urls}
//	GET  /v1/experiments    the experiment registry: names, titles, spec
//	                        counts, and how much of each is already warm
//	                        in the store
//	POST /v1/experiments/{name}  enumerate the experiment's specs, fan
//	                        them into the sweep machinery -> 202 {id, ...,
//	                        table_url}; when the last spec lands the
//	                        rendered table is assembled from the results
//	GET  /v1/jobs/{id}          job status
//	GET  /v1/jobs/{id}/events   SSE progress stream (replays, then live)
//	GET  /v1/jobs/{id}/results  per-task outcomes once the job is done
//	GET  /v1/jobs/{id}/table    the assembled table (text/plain), for
//	                        experiment jobs once done — byte-identical to
//	                        the same experiment run locally
//	GET  /v1/stats          runner + store + queue counters
//	GET  /healthz           liveness
//
// A request body is one JSON value: anything but whitespace after it, or
// a field the value's type does not have, is answered with 400. A
// byte-identical repeat of a /v1/sim body that passed and was admitted is
// served from a byte-bounded memo of its prepared spec, without decoding
// or validating it again.
//
// Capacity is bounded: MaxQueue covers every queued-or-running task across
// the service; a submission that does not fit is rejected with 429 and a
// Retry-After header rather than buffered without limit. A response is
// byte-identical whether the result was computed, read from the store, or
// deduplicated against a concurrent identical request.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/store"
	"dsarp/internal/telemetry"
)

// Config assembles a Server.
type Config struct {
	// Runner executes specs; its Store (if any) is the persistence layer
	// and its singleflight is the cross-request dedup layer. A store also
	// makes jobs crash-durable: each job's header is written under
	// <store>/jobs and adopted back — same IDs, stored results restored,
	// the rest re-enqueued — when the next Server starts on the store.
	Runner *exp.Runner
	// Workers bounds concurrently-running simulations (default: GOMAXPROCS).
	Workers int
	// MaxQueue bounds queued-plus-running tasks (default 256). Submissions
	// beyond it get 429.
	MaxQueue int
	// Chaos, if non-nil, injects faults ahead of the /v1 handlers — see
	// the Chaos type. Production deployments leave it nil.
	Chaos *Chaos
	// Peer, if non-nil, joins this worker to the fleet's replicated
	// warm-store tier: local store misses for keys the ring places on
	// other members are hedge-fetched from them before simulating, and
	// computed results are pushed to the key's other owners. Requires a
	// store-backed Runner.
	Peer *PeerConfig
	// Log receives operational messages (job adoption, degradation,
	// replication failures) as structured records. Nil discards them.
	Log *slog.Logger
	// Metrics is the registry GET /metrics renders; the server registers
	// its queue, runner, store, replication, and chaos series into it.
	// Nil gets a private registry — /metrics is always served.
	Metrics *telemetry.Registry
	// Trace, if non-nil, receives a serve-side span for every task whose
	// request carried an X-Dsarp-Trace header (see telemetry.Span).
	Trace *telemetry.Recorder
}

// task is one unit of queued work: a prepared spec, plus either a job slot
// (sweep) or a reply channel (synchronous /v1/sim). trace is the run's
// X-Dsarp-Trace header value, empty when the submitter sent none.
type task struct {
	p     exp.Prepared
	job   *job
	index int
	reply chan taskReply
	trace string
}

type taskReply struct {
	data []byte // the result's EncodeResult bytes
	key  store.Key
	src  exp.RunSource
	// resumedFrom is the checkpoint cycle the computation was restored
	// from, 0 for a cold (or cache/store-served) run.
	resumedFrom int64
	err         error
}

// Server owns the worker pool, the queue, and the job registry.
type Server struct {
	runner   *exp.Runner
	mux      *http.ServeMux
	handler  http.Handler // mux, possibly behind chaos middleware
	queue    chan task
	workersN int
	log      *slog.Logger
	peer     *peerNet // nil unless Config.Peer joined a replication tier

	reg     *telemetry.Registry
	metrics *serverMetrics
	trace   *telemetry.Recorder
	selfID  string       // this worker's fleet identity (Peer.Self), for spans
	sseSubs atomic.Int64 // open /events streams

	// halted simulates a crash for durability tests: once closed (halt),
	// workers stop without draining the queue — queued tasks are abandoned
	// exactly as a kill -9 would abandon them.
	halted   chan struct{}
	haltOnce sync.Once

	mu         sync.Mutex
	free       int // remaining queue+run slots
	maxQueue   int
	draining   bool
	simEWMA    float64 // EWMA of one computed simulation's wall time, seconds
	journalErr string  // first job header write failure; "" while healthy

	tasks   sync.WaitGroup // queued or running tasks
	workers sync.WaitGroup

	jobs jobRegistry
	// bodies memoizes the prepared spec of each /v1/sim body that passed
	// its checks and was admitted (see prepareSim).
	bodies bodyMemo
}

// New builds a Server and starts its workers. Call Drain to stop it.
func New(cfg Config) *Server {
	if cfg.Runner == nil {
		panic("serve: Config.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	s := &Server{
		runner:   cfg.Runner,
		queue:    make(chan task, cfg.MaxQueue),
		workersN: cfg.Workers,
		log:      cfg.Log,
		trace:    cfg.Trace,
		halted:   make(chan struct{}),
		free:     cfg.MaxQueue,
		maxQueue: cfg.MaxQueue,
		jobs:     newJobRegistry(),
	}
	if s.log == nil {
		s.log = telemetry.DiscardLogger()
	}
	if st := cfg.Runner.Options().Store; st != nil {
		// Job headers live beside the results they name: adopting a store
		// directory means adopting its jobs too.
		s.jobs.dir = filepath.Join(st.Dir(), "jobs")
	}
	if cfg.Peer != nil {
		if cfg.Runner.Options().Store == nil {
			panic("serve: Config.Peer requires a store-backed Runner")
		}
		s.peer = newPeerNet(*cfg.Peer, s.log)
		s.selfID = s.peer.self
		// The runner consults the peer tier inside its singleflight, after
		// a local store miss and before a simulation starts — concurrent
		// identical specs share one hedged fetch.
		cfg.Runner.SetPeerFetch(s.peer.fetch)
		// Checkpoints replicate the same way computed results do: every
		// snapshot the runner persists is pushed to its prefix key's other
		// ring owners, so a retry landing on a different worker can resume.
		cfg.Runner.SetSnapshotPublish(s.peer.push)
	}
	s.reg = cfg.Metrics
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.metrics = s.registerMetrics(s.reg, cfg.Chaos)
	s.mux = http.NewServeMux()
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.HandleFunc("POST /v1/sim", s.handleSim)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	s.mux.HandleFunc("POST /v1/experiments/{name}", s.handleExperimentRun)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	s.mux.HandleFunc("GET /v1/jobs/{id}/table", s.handleJobTable)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResultGet)
	s.mux.HandleFunc("PUT /v1/results/{key}", s.handleResultPut)
	// Degraded stays 200: the process is alive and completing work, it has
	// just lost durable writes — orchestrators should deprioritize it, not
	// restart-loop it.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if deg, reason := s.degradedState(); deg {
			fmt.Fprintf(w, "degraded: %s\n", reason)
			return
		}
		w.Write([]byte("ok\n"))
	})
	s.handler = s.mux
	if cfg.Chaos != nil {
		s.handler = cfg.Chaos.wrap(s.mux)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	// Adopt the jobs of a previous incarnation before any request
	// can race them, then feed the re-enqueued specs from the background:
	// an adopted backlog larger than the queue buffer must not block New.
	if adopted := s.adoptJobs(); len(adopted) > 0 {
		// Force-reserve: free may go negative, which is correct — adopted
		// work occupies real capacity, and submissions see 429 until it
		// drains.
		s.mu.Lock()
		s.free -= len(adopted)
		s.mu.Unlock()
		s.tasks.Add(len(adopted))
		go func() {
			for _, t := range adopted {
				select {
				case s.queue <- t:
				case <-s.halted:
					return // crash-simulation: the rest is lost, as intended
				}
			}
		}()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		var t task
		select {
		case <-s.halted:
			return
		case tt, ok := <-s.queue:
			if !ok {
				return
			}
			t = tt
		}
		start := time.Now()
		data, info, err := s.runner.RunSpecEncoded(t.p)
		src, key := info.Source, info.Key
		dur := time.Since(start)
		for _, rej := range info.Rejected {
			s.log.Warn("checkpoint rejected", "spec", key.String(), "err", rej)
		}
		if err == nil {
			s.metrics.simSeconds.With(src.String()).Observe(dur.Seconds())
			if info.ResumedFrom > 0 {
				s.metrics.resumeCycle.Observe(float64(info.ResumedFrom))
				s.log.Info("resumed from checkpoint",
					"spec", key.String(), "cycle", info.ResumedFrom)
			}
		}
		if err == nil && src == exp.SourceComputed {
			s.noteSimDuration(dur)
			// Replicate what only this worker has: freshly-computed results
			// go to the key's other owners asynchronously. Store- and
			// peer-served results are already replicated (or being repaired
			// by the fetch path) — re-pushing them would only amplify load.
			if s.peer != nil {
				s.peer.push(key, data)
			}
		}
		if s.trace != nil && t.trace != "" {
			spec := t.p.Spec()
			sp := telemetry.Span{
				Trace:       t.trace,
				Kind:        telemetry.SpanServe,
				Spec:        key.String(),
				Label:       spec.Name + " " + spec.Mechanism,
				Worker:      s.selfID,
				ResumedFrom: info.ResumedFrom,
				Millis:      float64(dur) / float64(time.Millisecond),
			}
			if err != nil {
				sp.Status, sp.Error = "failed", err.Error()
			} else {
				sp.Status, sp.Source = "ok", src.String()
			}
			s.trace.Record(sp)
		}
		if t.reply != nil {
			t.reply <- taskReply{data: data, key: key, src: src, resumedFrom: info.ResumedFrom, err: err}
		}
		// The reply may precede the result's store write; the worker takes
		// no next task until the write lands, which bounds the writes in
		// flight by the worker count (bar the checkpoints an aborted run
		// queued, which only Drain waits for). A job counts a task done
		// only then, so done never runs ahead of what a restart finds in
		// the store.
		info.Writes.Wait()
		s.release(1)
		if t.job != nil {
			t.job.complete(t.index, t.p.Spec(), key, data, src, err)
		}
		s.tasks.Done()
	}
}

// halt stops the server the way a crash would: submissions are refused,
// workers finish at most their current task, and everything still queued
// is abandoned — its results never reached the store, so a successor
// adopting the job re-enqueues exactly those specs. Used by
// durability tests (a real kill -9 needs no cooperation); a halted Server
// must not be Drained, since abandoned tasks would keep Drain waiting
// forever.
func (s *Server) halt() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.haltOnce.Do(func() { close(s.halted) })
	s.workers.Wait()
}

// reserve atomically claims n queue slots, refusing while draining. Each
// successful reserve is matched by a release when the task finishes.
func (s *Server) reserve(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	if n > s.free {
		return errQueueFull
	}
	s.free -= n
	s.tasks.Add(n)
	return nil
}

func (s *Server) release(n int) {
	s.mu.Lock()
	s.free += n
	s.mu.Unlock()
}

var (
	errDraining  = errors.New("serve: shutting down")
	errQueueFull = errors.New("serve: queue full")
)

// Drain stops the service gracefully: new submissions are refused with
// 503, every queued or running task finishes (its result reaching the
// store and any SSE subscribers), then the workers exit and every
// write-behind store write of the runner lands. Status and results
// endpoints keep answering throughout. Returns ctx.Err() if the deadline
// expires first; the workers then finish in the background.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.tasks.Wait()
		if !already {
			close(s.queue)
		}
		s.workers.Wait()
		// No simulation is running any more; the writes behind the
		// finished ones may still be landing (and being published).
		s.runner.WaitWrites()
		if s.peer != nil {
			// Let in-flight replica pushes land (or exhaust their retries)
			// so a drained worker leaves the tier fully repaired.
			s.peer.pushes.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- handlers ---

// simResponse is the POST /v1/sim reply. handleSim frames it by hand
// (writeSimReply), byte for byte as writeJSON would write it.
type simResponse struct {
	Key    string `json:"key"`
	Source string `json:"source"`
	Cached bool   `json:"cached"`
	// ResumedFrom is the checkpoint cycle a computed simulation was
	// restored from; 0/absent for cold or cache-served runs.
	ResumedFrom int64           `json:"resumed_from,omitempty"`
	Result      json.RawMessage `json:"result"`
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	b, err := s.prepareSim(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.reserve(1); err != nil {
		s.refuse(w, err)
		return
	}
	s.remember(b)
	reply := make(chan taskReply, 1)
	s.queue <- task{p: b.p, reply: reply, trace: r.Header.Get(telemetry.TraceHeader)}
	rep := <-reply
	if rep.err != nil {
		// A watchdog abort is retryable elsewhere or with a bigger budget:
		// 504 distinguishes it from a permanent simulation failure.
		status := http.StatusInternalServerError
		if errors.Is(rep.err, exp.ErrSimTimeout) {
			status = http.StatusGatewayTimeout
		}
		httpError(w, status, rep.err)
		return
	}
	writeSimReply(w, rep.key, rep.src, rep.resumedFrom, rep.data)
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	Name  string        `json:"name,omitempty"`
	Specs []exp.SimSpec `json:"specs"`
}

type sweepResponse struct {
	ID         string `json:"id"`
	Total      int    `json:"total"`
	StatusURL  string `json:"status_url"`
	EventsURL  string `json:"events_url"`
	ResultsURL string `json:"results_url"`
	// TableURL is set for experiment jobs (POST /v1/experiments/{name}).
	TableURL string `json:"table_url,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	var req sweepRequest
	if err := decodeBody(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Specs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("serve: sweep has no specs"))
		return
	}
	prepared, err := s.prepareAll(req.Specs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// A sweep that could never fit is a permanent client error, not a
	// transient 429 — retrying would loop forever.
	if len(prepared) > s.maxQueue {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: sweep of %d specs exceeds queue capacity %d; split it", len(prepared), s.maxQueue))
		return
	}
	// All-or-nothing admission: either the whole sweep fits the queue
	// budget or none of it is admitted.
	if err := s.reserve(len(prepared)); err != nil {
		s.refuse(w, err)
		return
	}
	j := s.createJob(req.Name, prepared, "", nil)
	for i, p := range prepared {
		s.queue <- task{p: p, job: j, index: i, trace: r.Header.Get(telemetry.TraceHeader)}
	}
	writeJSON(w, http.StatusAccepted, sweepResponse{
		ID:         j.id,
		Total:      len(prepared),
		StatusURL:  "/v1/jobs/" + j.id,
		EventsURL:  "/v1/jobs/" + j.id + "/events",
		ResultsURL: "/v1/jobs/" + j.id + "/results",
	})
}

// experimentInfo is one row of the GET /v1/experiments listing.
type experimentInfo struct {
	Name      string `json:"name"`
	Title     string `json:"title"`
	SpecCount int    `json:"spec_count"`
	// WarmCount is how many of the experiment's specs already have a
	// result in the store; present only when a store is configured.
	WarmCount *int   `json:"warm_count,omitempty"`
	RunURL    string `json:"run_url"`
}

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	st := s.runner.Options().Store
	var infos []experimentInfo
	for _, e := range exp.Experiments() {
		info := experimentInfo{
			Name:      e.Name,
			Title:     e.Title,
			SpecCount: len(e.Specs(s.runner)),
			RunURL:    "/v1/experiments/" + e.Name,
		}
		if st != nil {
			warm := s.runner.WarmCount(e)
			info.WarmCount = &warm
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"schema":      exp.SchemaVersion,
		"experiments": infos,
	})
}

// handleExperimentRun enumerates a registry entry's specs and fans them
// into the same job machinery a hand-built sweep uses; when all specs
// land, the job assembles the rendered table from their results (see
// handleJobTable). The enumeration uses the daemon's scale options, so a
// fleet of dsarpd started with the same flags enumerates identical specs.
func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := exp.LookupExperiment(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no experiment %q", name))
		return
	}
	specs := e.Specs(s.runner)
	if len(specs) > s.maxQueue {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: experiment %s needs %d specs, queue capacity is %d; raise -max-queue or split it over /v1/sweep", name, len(specs), s.maxQueue))
		return
	}
	prepared, err := s.prepareAll(specs)
	if err != nil {
		// Runner-built specs are canonical: only a bug gets here.
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if err := s.reserve(len(prepared)); err != nil {
		s.refuse(w, err)
		return
	}
	j := s.createJob(name, prepared, name, s.assembler(e, specs))
	for i, p := range prepared {
		s.queue <- task{p: p, job: j, index: i, trace: r.Header.Get(telemetry.TraceHeader)}
	}
	writeJSON(w, http.StatusAccepted, sweepResponse{
		ID:         j.id,
		Total:      len(prepared),
		StatusURL:  "/v1/jobs/" + j.id,
		EventsURL:  "/v1/jobs/" + j.id + "/events",
		ResultsURL: "/v1/jobs/" + j.id + "/results",
		TableURL:   "/v1/jobs/" + j.id + "/table",
	})
}

// assembler adapts a registry entry to the job completion hook: decode
// every outcome's wire result, assemble, render. The bytes flowing in are
// the same EncodeResult bytes the store holds, so the rendered table is
// byte-identical to a local run over the same results.
func (s *Server) assembler(e exp.Experiment, specs []exp.SimSpec) func([]taskOutcome) (string, error) {
	return func(outcomes []taskOutcome) (string, error) {
		results := exp.Results{}
		for i, out := range outcomes {
			if out.Error != "" {
				return "", fmt.Errorf("serve: task %d (%s) failed: %s", i, specs[i].Name, out.Error)
			}
			res, err := exp.DecodeResult(out.Result)
			if err != nil {
				return "", fmt.Errorf("serve: task %d: %w", i, err)
			}
			results.Add(specs[i], res)
		}
		rendered, err := e.Assemble(s.runner, results)
		if err != nil {
			return "", err
		}
		return rendered.String(), nil
	}
}

func (s *Server) handleJobTable(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	isExperiment, ready, table, errMsg := j.tableState()
	switch {
	case !isExperiment:
		httpError(w, http.StatusNotFound, errors.New("serve: not an experiment job; use /results"))
	case !ready:
		writeJSON(w, http.StatusAccepted, j.status())
	case errMsg != "":
		httpError(w, http.StatusInternalServerError, errors.New(errMsg))
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, table)
	}
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return nil
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	st, results := j.results()
	if st.State != "done" {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"state": st.State, "results": results})
}

// handleJobEvents streams job progress as server-sent events: one "task"
// event per completed simulation (already-completed ones are replayed
// first, so a late subscriber sees the full history in order), then one
// "done" event, then the stream closes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	s.sseSubs.Add(1)
	defer s.sseSubs.Add(-1)
	replay, live := j.subscribe()
	defer j.unsubscribe(live)
	emit := func(ev jobEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		fl.Flush()
		return ev.Type != eventDone
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-live:
			if !emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	free, draining := s.free, s.draining
	s.mu.Unlock()
	deg, reason := s.degradedState()
	stats := map[string]any{
		"sims_run":   s.runner.SimsRun(),
		"store_hits": s.runner.StoreHits(),
		"store_errs": s.runner.StoreErrs(),
		"queue_free": free,
		"queue_cap":  s.maxQueue,
		"draining":   draining,
		"degraded":   deg,
		"jobs":       s.jobs.count(),
		"schema":     exp.SchemaVersion,
	}
	if reason != "" {
		stats["degraded_reason"] = reason
	}
	if st := s.runner.Options().Store; st != nil {
		stats["store"] = st.Stats()
	}
	if s.peer != nil {
		stats["replication"] = s.peer.stats()
	}
	writeJSON(w, http.StatusOK, stats)
}

// --- plumbing ---

// prepareAll prepares every spec of a sweep or an experiment; an error
// names the first spec that fails.
func (s *Server) prepareAll(specs []exp.SimSpec) ([]exp.Prepared, error) {
	prepared := make([]exp.Prepared, len(specs))
	for i, spec := range specs {
		p, err := s.runner.Prepare(spec)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		prepared[i] = p
	}
	return prepared, nil
}

// readBody reads a request body of at most maxResultBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	// MaxBytesReader needs the real ResponseWriter: on overflow net/http
	// then sets Connection: close so the client stops streaming a body
	// nobody will read.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResultBytes))
	if err != nil {
		return nil, fmt.Errorf("serve: bad request body: %w", err)
	}
	return body, nil
}

// decodeBody decodes a request body into v. The body must hold exactly
// one JSON value, with whitespace around it allowed, and no field v does
// not have.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("serve: bad request body: %d bytes after the JSON value", len(rest))
	}
	return nil
}

// decodeStatus maps a request-body read failure to its status: an
// oversized body is 413 per the net/http MaxBytesReader contract,
// anything else is a plain bad request.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// noteSimDuration feeds one computed simulation's wall time into the EWMA
// behind Retry-After estimates. Cached and store-served results are
// excluded: they say nothing about how fast the backlog will drain.
func (s *Server) noteSimDuration(d time.Duration) {
	secs := d.Seconds()
	s.mu.Lock()
	if s.simEWMA == 0 {
		s.simEWMA = secs
	} else {
		s.simEWMA = 0.7*s.simEWMA + 0.3*secs
	}
	s.mu.Unlock()
}

// retryAfterSecs estimates how long a refused client should wait before
// resubmitting: the current backlog divided across the worker pool, times
// the EWMA runtime of one computed simulation. Before any simulation has
// completed the estimate falls back to one second per queued task-batch.
// Clamped to [1, 600] so a pathological estimate never tells a client
// "come back tomorrow".
func (s *Server) retryAfterSecs() int {
	s.mu.Lock()
	backlog := s.maxQueue - s.free
	perSim := s.simEWMA
	s.mu.Unlock()
	if perSim == 0 {
		perSim = 1
	}
	secs := int(math.Ceil(float64(backlog) / float64(s.workersN) * perSim))
	return min(max(secs, 1), 600)
}

// refuse maps submission-time capacity errors to their status codes. Both
// the 429 (queue full) and the drain 503 carry a Retry-After computed
// from live queue depth and observed per-simulation runtime: a drained
// worker is typically restarted, and its backlog estimate is the best
// guess for when it will take work again.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	switch err {
	case errQueueFull:
		s.metrics.refused.With("queue_full").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		httpError(w, http.StatusTooManyRequests, err)
	case errDraining:
		s.metrics.refused.With("draining").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}
