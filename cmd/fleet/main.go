// Command fleet reproduces one registry experiment across N dsarpd
// workers, fault-tolerantly: it health-checks the workers, dispatches
// each spec to the least-loaded live one, retries transient failures
// (429 backpressure, 5xx, timeouts, dropped connections, worker death)
// with capped exponential backoff against the survivors, and assembles
// the experiment's table locally — byte-identical to a single-node run,
// because the table is a pure function of content-addressed results.
//
// Usage:
//
//	fleet -addrs http://host1:8080,http://host2:8080 -experiment table2
//	      [-store DIR [-store-max-mb N]]
//	      [-scale default|paper] [-percat N] [-sensitivity N]
//	      [-warmup N] [-measure N] [-seed N] [-engine event|cycle]
//	      [-timeout DUR] [-concurrency N] [-max-attempts N] [-replicas R]
//	      [-trace run.jsonl] [-progress 10s]
//	      [-log-format text|json] [-log-level info]
//	fleet -trace-report run.jsonl
//
// -replicas mirrors the workers' own replication factor: dispatch is
// ring-affine, preferring each spec's rendezvous owners among -addrs so
// warm state lands where the workers' replication tier (dsarpd -peers)
// and future reruns will look. At the end of a run, workers that report
// a replication section in /v1/stats are summarized on stderr.
//
// The scale flags mirror dsarpd's: the orchestrator enumerates the
// experiment's specs locally at this scale, so it needs no agreement
// with the workers' own flags — specs travel fully resolved.
//
// -store keeps fetched results in a local content-addressed store: if
// the command dies (or is interrupted), rerunning it with the same -store
// resumes where it left off instead of starting over. Specs already in
// the store are not dispatched, and a spec dispatched again is a warm hit
// on a worker that already holds it.
//
// -trace appends the run's trace-of-record to a JSONL flight recorder:
// a run header, then one span per dispatch attempt (worker, status or
// retry cause, wall time) and one terminal span per spec (serving
// source, or the permanent failure). The run's trace ID travels to the
// workers as X-Dsarp-Trace, so a dsarpd started with its own -trace
// records the server side of the same story. A rerun appends a second
// run to the same file. -trace-report replays a recorded file into
// per-spec attempt-chain summaries, one report per run, and exits.
//
// -progress logs a heartbeat at the given period: dispatched/done/
// retried/failed so far, the computed-vs-warm split, and an ETA from an
// exponentially-weighted per-dispatch wall time.
//
// The table is written to stdout; progress and fault narration go to
// stderr. Exit status: 0 on success, 1 when specs failed permanently or
// the run was interrupted, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/fleet"
	"dsarp/internal/sim"
	"dsarp/internal/store"
	"dsarp/internal/telemetry"
)

func main() {
	os.Exit(mainImpl())
}

func mainImpl() int {
	var (
		addrs       = flag.String("addrs", "", "comma-separated dsarpd base URLs (required)")
		experiment  = flag.String("experiment", "", "registry experiment to reproduce (required; see cmd/experiments -list)")
		storeDir    = flag.String("store", "", "local result store directory; rerun with the same one to resume ('' disables)")
		storeMaxMB  = flag.Int64("store-max-mb", 0, "local store size cap in MiB (0 = unlimited)")
		engine      = flag.String("engine", "event", "simulation engine baked into enumerated specs")
		warmup      = flag.Int64("warmup", 0, "override warmup (DRAM cycles)")
		measure     = flag.Int64("measure", 0, "override measurement window")
		seed        = flag.Int64("seed", 42, "workload seed")
		scale       = flag.String("scale", "default", "experiment-enumeration scale: default | paper")
		percat      = flag.Int("percat", 0, "override workloads per intensity category")
		sens        = flag.Int("sensitivity", 0, "override sensitivity workload count")
		timeout     = flag.Duration("timeout", 10*time.Minute, "per-dispatch timeout, simulation included")
		concurrency = flag.Int("concurrency", 0, "specs in flight across the fleet (0 = 4 per worker)")
		maxAttempts = flag.Int("max-attempts", 0, "transient retries per spec before giving up (0 = unlimited)")
		replicas    = flag.Int("replicas", 2, "workers' warm-store replication factor (ring-affine dispatch)")
		tracePath   = flag.String("trace", "", "append the run's trace-of-record (JSONL spans) to this file")
		traceReport = flag.String("trace-report", "", "replay a recorded trace file into per-spec attempt chains and exit")
		progress    = flag.Duration("progress", 0, "heartbeat period for progress lines on stderr (0 disables)")
		logFormat   = flag.String("log-format", "text", "log line format: text | json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	flag.Parse()
	log.SetFlags(0)

	if *traceReport != "" {
		spans, err := telemetry.ReadTrace(*traceReport)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		reports, err := telemetry.BuildReports(spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		for _, report := range reports {
			fmt.Print(report.String())
		}
		return 0
	}

	if *addrs == "" || *experiment == "" {
		fmt.Fprintln(os.Stderr, "fleet: -addrs and -experiment are required")
		flag.Usage()
		return 2
	}

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	opts, err := exp.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	opts.Seed = *seed
	if *percat > 0 {
		opts.PerCategory = *percat
	}
	if *sens > 0 {
		opts.Sensitivity = *sens
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *measure > 0 {
		opts.Measure = *measure
	}
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	opts.Engine = eng

	cfg := fleet.Config{
		Workers:        strings.Split(*addrs, ","),
		RequestTimeout: *timeout,
		Concurrency:    *concurrency,
		MaxAttempts:    *maxAttempts,
		Replicas:       *replicas,
		Log:            logger,
		Progress:       *progress,
	}
	var trace *telemetry.Recorder
	if *tracePath != "" {
		trace, err = telemetry.NewRecorder(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		cfg.Trace = trace
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{
			MaxBytes:   *storeMaxMB << 20,
			Generation: exp.SchemaVersion,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		cfg.Store = st
	}
	o, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	// SIGINT/SIGTERM cancel the run; rerunning with the same -store resumes it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := exp.NewRunner(opts) // enumeration and assembly only; runs no sims
	table, err := o.RunExperiment(ctx, r, *experiment)
	st := o.Stats()
	// The summary and replication lines stay plain prints: scripts grep
	// them regardless of -log-format.
	log.Printf("fleet: %d dispatched (%d computed, %d affine), %d local hits, %d retries, %d failed",
		st.Dispatched, st.Computed, st.Affine, st.LocalHits, st.Retries, st.Failed)
	if line, ok := o.ReplicationSummary(context.Background()); ok {
		log.Printf("fleet: %s", line)
	}
	if trace != nil {
		if cerr := trace.Close(); cerr != nil {
			logger.Warn("flight recorder", "err", cerr)
		} else {
			logger.Info("trace written", "path", *tracePath)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	fmt.Print(table.String())
	return 0
}
