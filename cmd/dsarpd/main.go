// Command dsarpd serves the DSARP simulator over HTTP: single simulations
// (POST /v1/sim), batched sweeps with job tracking and SSE progress
// (POST /v1/sweep, GET /v1/jobs/{id}...), and whole registry experiments
// (GET /v1/experiments, POST /v1/experiments/{name} -> assembled table),
// all deduplicated in flight and persisted in a content-addressed result
// store, so any config is ever simulated once per store — across
// requests, restarts, and clients.
//
// Usage:
//
//	dsarpd [-addr :8080] [-parallel N] [-max-queue N] [-sim-timeout D]
//	       [-checkpoint-every N]
//	       [-scale default|paper] [-percat N] [-sensitivity N]
//	       [-warmup N] [-measure N] [-seed N] [-engine event|cycle]
//	       [-store .dsarp-store] [-store-max-mb N]
//	       [-self URL -peers URL,URL,... [-replicas R]]
//	       [-chaos fail=P,drop=P,stall=P:D,kill=N,diskfail=P,seed=N]
//	       [-debug-addr :6060] [-trace spans.jsonl]
//	       [-log-format text|json] [-log-level info]
//
// The scale, seed, engine and store flags are the ones cmd/experiments
// and cmd/fleet take, registered and resolved by exp.Flags; only -store's
// default differs. They set the workload scale behind experiment
// enumeration: a fleet of dsarpd started with the same flags enumerates
// identical specs, so workers sharing a -store directory compose into one
// reproduction. -warmup/-measure/-engine also fill the fields a submitted
// spec leaves unset; fully-specified specs are served as sent. A negative
// value of any numeric flag exits with status 2 naming it, before the
// store opens or the daemon listens.
//
// The store records the exp.SchemaVersion generation: reopening a store
// written under an older schema sweeps its (unreachable) entries at
// startup. Completed results are not retained in RAM — the store is the
// cache — so memory stays flat however many unique specs are served. A
// computed result is written to the store behind its reply: a worker
// replies, then waits for that write before taking its next task, and a
// job counts the task done only once it has landed.
//
// Jobs are crash-durable when a store is configured: every job's header
// (its ID and spec list) is written under <store>/jobs, and a restarted
// dsarpd on the same store directory adopts every job — same job IDs,
// specs whose results are in the store replayed as cache hits, the rest
// re-enqueued. If the store's disk fails mid-flight the
// daemon keeps completing work from memory and reports itself degraded
// on /healthz and /v1/stats instead of dying.
//
// -sim-timeout bounds each simulation's wall clock: a run that exceeds
// it is aborted, its queue slot freed, and the client told 504 (retry
// elsewhere, or resubmit with a bigger budget).
//
// -checkpoint-every N makes simulations resumable (requires a store):
// every run persists its machine state at the warmup boundary and every
// N DRAM cycles of the measurement window, the window's last cycle
// included when N divides the measure, content-addressed under the
// spec's prefix key, and every run first probes the store for the
// deepest usable snapshot to resume from. A watchdog-aborted, killed, or
// re-enqueued run then re-simulates at most N cycles of tail instead of
// the whole window, and extending a spec's measurement window resumes
// where the shorter run ended. That last snapshot is written after the
// reply; an extension that arrives first resumes, exactly, from a
// shallower one. With -peers, snapshots replicate like results, so the
// retry can land on a different worker.
//
// -peers joins the worker to a replicated warm-store tier: every member
// builds the same rendezvous ring over the member URLs (-self plus
// -peers, order irrelevant, self-inclusion harmless — hand every worker
// the same flat list), each result key is owned by -replicas members
// (default 2), and workers repair each other lazily — a local store miss
// for an owned key is hedge-fetched from the other owners before
// simulating, and every computed result is pushed asynchronously to the
// key's other owners. With R=2 the fleet's warm state survives the
// permanent loss of any single worker. Requires a store.
//
// Observability: GET /metrics on the API port renders the worker's
// Prometheus exposition (queue, runner, store, replication, chaos
// counters). -debug-addr starts a second listener serving the same
// /metrics plus net/http/pprof under /debug/pprof/ — scrape and profile
// traffic stays off the API port's queue accounting. -trace appends a
// serve-side span (worker, status, source, wall time) to a JSONL flight
// recorder for every request that carries an X-Dsarp-Trace header, the
// worker-side half of cmd/fleet -trace. Logs are structured (log/slog);
// -log-format json emits machine-parsable lines, -log-level gates
// verbosity (debug|info|warn|error).
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503, queued work
// finishes and reaches the store, then the process exits.
//
// -chaos injects faults ahead of the /v1 handlers — spurious 500s,
// severed connections, stalled responses, and an optional hard kill
// (os.Exit(137)) after N requests — for exercising fleet orchestrators
// against worker misbehavior. /healthz stays honest throughout.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/serve"
	"dsarp/internal/store"
	"dsarp/internal/telemetry"
)

func main() {
	os.Exit(mainImpl())
}

func mainImpl() int {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = one per CPU)")
		maxQueue   = flag.Int("max-queue", 256, "max queued+running tasks before 429")
		self       = flag.String("self", "", "this worker's base URL as peers address it (required with -peers)")
		peers      = flag.String("peers", "", "comma-separated peer base URLs; joins the replicated warm-store tier")
		replicas   = flag.Int("replicas", 2, "warm-store replication factor R (with -peers)")
		drainSecs  = flag.Int("drain-timeout", 60, "seconds to wait for in-flight work on shutdown")
		simTimeout = flag.Duration("sim-timeout", 0, "wall-clock budget per simulation (0 = unlimited); exceeding it aborts the run with a retryable 504")
		ckptEvery  = flag.Int64("checkpoint-every", 0, "persist resumable machine-state snapshots at the warmup boundary and every N measure cycles, the window's last cycle included when N divides the measure (0 disables; requires -store)")
		chaosSpec  = flag.String("chaos", "", "inject faults for orchestrator testing, e.g. 'fail=0.1,drop=0.05,stall=0.1:2s,kill=100,diskfail=0.2,seed=7'")
		debugAddr  = flag.String("debug-addr", "", "side listener for /metrics and /debug/pprof ('' disables)")
		tracePath  = flag.String("trace", "", "append serve-side spans for X-Dsarp-Trace requests to this JSONL file")
		logFormat  = flag.String("log-format", "text", "log line format: text | json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	shared := exp.RegisterFlags(flag.CommandLine, ".dsarp-store")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	// Zero keeps each flag's documented meaning; a negative value has none.
	for _, f := range []struct {
		name string
		v    int64
	}{{"parallel", int64(*parallel)}, {"max-queue", int64(*maxQueue)}, {"replicas", int64(*replicas)},
		{"drain-timeout", int64(*drainSecs)}, {"sim-timeout", int64(*simTimeout)}, {"checkpoint-every", *ckptEvery}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "-%s %v: must not be negative\n", f.name, flag.Lookup(f.name).Value)
			return 2
		}
	}
	opts, err := shared.Options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	opts.SimTimeout = *simTimeout

	// Chaos is parsed before the store opens: diskfail injects failures
	// into the store's write path, so the hook must exist first.
	chaos, err := serve.ParseChaos(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	if chaos != nil {
		// The kill hook is a hard death, not a drain: exactly what a fleet
		// orchestrator must survive. 137 = 128+SIGKILL, the code a real
		// OOM-kill or kill -9 would yield.
		chaos.Kill = func() {
			logger.Warn("chaos: hard-killing worker (kill threshold reached)")
			os.Exit(137)
		}
		logger.Info("chaos enabled", "spec", *chaosSpec)
	}

	st, err := shared.OpenStore(store.Options{FailWrites: chaos.FailWrites()})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	if st != nil {
		opts.Store = st
		// The disk is the cache: don't also retain every result in RAM
		// for the life of the daemon.
		opts.EphemeralResults = true
		if s := st.Stats(); s.Expired > 0 {
			logger.Info("store: swept old-schema entries", "entries", s.Expired, "bytes", s.ExpiredBytes)
		}
		logger.Info("store open", "dir", st.Dir(), "entries", st.Len())
	} else {
		logger.Info("store disabled (results and jobs die with the process)")
	}

	if *ckptEvery > 0 {
		if opts.Store == nil {
			fmt.Fprintln(os.Stderr, "dsarpd: -checkpoint-every requires a -store (snapshots are store entries)")
			return 2
		}
		opts.Checkpoints = true
		opts.CheckpointEvery = *ckptEvery
		logger.Info("checkpoints enabled", "every", *ckptEvery)
	}

	var peerCfg *serve.PeerConfig
	if *peers != "" {
		if *self == "" {
			fmt.Fprintln(os.Stderr, "dsarpd: -peers requires -self (this worker's URL as the peers address it)")
			return 2
		}
		if opts.Store == nil {
			fmt.Fprintln(os.Stderr, "dsarpd: -peers requires a -store (the replicated tier is the store)")
			return 2
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		peerCfg = &serve.PeerConfig{Self: *self, Peers: peerList, Replicas: *replicas}
		logger.Info("replication enabled", "self", *self, "peers", peerList, "replicas", *replicas)
	}

	var trace *telemetry.Recorder
	if *tracePath != "" {
		trace, err = telemetry.NewRecorder(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		defer func() {
			if err := trace.Close(); err != nil {
				logger.Warn("flight recorder", "err", err)
			}
		}()
		logger.Info("flight recorder open", "path", *tracePath)
	}

	reg := telemetry.NewRegistry()
	srv := serve.New(serve.Config{
		Runner:   exp.NewRunner(opts),
		Workers:  *parallel,
		MaxQueue: *maxQueue,
		Chaos:    chaos,
		Peer:     peerCfg,
		Log:      logger,
		Metrics:  reg,
		Trace:    trace,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("dsarpd listening", "addr", *addr, "schema", exp.SchemaVersion)

	// The debug listener shares the API port's registry but bypasses its
	// chaos middleware and queue accounting: scrapes and profiles stay
	// honest while the service is saturated or misbehaving on purpose.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.Handle("GET /metrics", reg.Handler())
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Warn("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug listener on", "addr", *debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	case sig := <-sigc:
		logger.Info("draining (in-flight work finishes and reaches the store)", "signal", sig.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Warn("drain incomplete (some queued work abandoned)", "err", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(ctx)
	}
	logger.Info("dsarpd stopped")
	return 0
}
