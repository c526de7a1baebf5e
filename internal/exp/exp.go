// Package exp regenerates every table and figure of the paper's evaluation
// (§3 and §6) plus the design-choice ablations. Each experiment is a
// registry entry (Experiments, LookupExperiment) defined by one pure
// assembly function that reads simulation results through a lookup.
// Specs runs it against a recorder to enumerate the simulations it needs
// as fully-resolved SimSpecs, and Assemble runs it against a Results map
// to render the table — so any execution strategy fits between them
// (Runner.RunExperiment's local pool, the HTTP sweep machinery, or a fleet
// of dsarpd workers). Results of individual simulations are cached and
// shared across experiments so e.g. Fig. 12, Fig. 13 and Table 2 reuse the
// same runs.
//
// Scale is controlled by Options: the defaults are laptop-scale; Paper()
// restores the paper's 100-workload setup with long measurement windows.
package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/sched"
	"dsarp/internal/sim"
	"dsarp/internal/store"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// Options set the experiment scale and common system parameters.
type Options struct {
	PerCategory int // workloads per intensity category (paper: 20)
	Sensitivity int // intensive workloads for §6.2-6.4 (paper: 16)
	Cores       int
	Warmup      int64 // DRAM cycles
	Measure     int64 // DRAM cycles
	Seed        int64
	Densities   []timing.Density
	// Parallelism bounds how many simulations run concurrently: 0 (the
	// default) uses one worker per available CPU, 1 runs fully serial with
	// no goroutines, n > 1 uses n workers. Every setting produces
	// bit-identical tables: each simulation derives all state from its own
	// config and seed, and in-flight runs are deduplicated so experiments
	// still share cached results. Only the Progress callback order varies.
	Parallelism int
	// Engine selects the simulation run loop (default: the clock-skipping
	// event engine). Both engines produce bit-identical tables.
	Engine sim.Engine
	// Store, if non-nil, is a content-addressed result cache the runner
	// consults before simulating and writes each completed result to.
	// Results served from the store are byte-identical to fresh computes
	// (the key covers everything that determines them, plus
	// SchemaVersion), so a warm store only removes work: an interrupted
	// sweep resumes from its per-task results instead of restarting.
	Store *store.Store
	// SimTimeout, if positive, is a per-simulation wall-clock budget: a
	// computed run that exceeds it is aborted via sim.Config.Stop and
	// surfaces ErrSimTimeout instead of a result. Nothing partial reaches
	// the cache or store, so a retry (possibly on another fleet worker) is
	// clean. Cache and store hits are unaffected — the budget covers
	// simulation work, not lookups. Zero means unlimited (the default:
	// simulations are deterministic, so a timeout usually signals an
	// over-ambitious spec or a starved machine rather than a hang).
	SimTimeout time.Duration
	// Checkpoints makes computed simulations resumable when a Store is
	// configured: before simulating, the runner probes the store's
	// snapshot namespace for the deepest usable checkpoint of the spec's
	// prefix (see SimSpec.PrefixKey) and resumes from it; cold runs write
	// a warmup-boundary snapshot so any later run sharing the prefix —
	// the same spec, a measure-extension rerun, or a retry after a crash
	// or watchdog abort — skips the warmup entirely. Snapshots are pure
	// accelerators: a missing, corrupt, or version-mismatched one falls
	// back to a shallower one or a cold run, never to an error (an
	// unusable one is counted in CheckpointsRejected), and results are
	// bit-identical either way. Ignored without a Store.
	Checkpoints bool
	// CheckpointEvery, if positive (and Checkpoints is on), additionally
	// writes periodic snapshots every N DRAM cycles of the measurement
	// window, bounding how much work an interrupted run loses to the tail
	// since its last checkpoint. When N divides Measure the grid includes
	// the window's last cycle, so a longer-Measure rerun resumes where
	// this run ended; that snapshot is written after the Result is
	// returned (see WaitCheckpoints). Zero writes only the
	// warmup-boundary snapshot.
	CheckpointEvery int64
	// EphemeralResults bounds the runner's memory when a Store is
	// configured: completed results are NOT retained in the in-memory
	// cache once they are safely on disk — later hits re-read and decode
	// the store entry instead. In-flight dedup is unaffected. Intended
	// for long-lived daemons (dsarpd), which would otherwise accumulate
	// one sim.Result per unique spec ever served; ignored without a
	// Store, and a result whose store write fails is kept in memory so it
	// is never silently lost.
	EphemeralResults bool
	// Progress, if non-nil, is called after each completed simulation with
	// the runner's running count of them. It is never called concurrently,
	// but under parallelism the callback order is completion order, not
	// submission order.
	Progress func(done int, label string)
}

// Defaults returns a laptop-scale configuration: 10 workloads (2 per
// category), short measurement windows. Experiment shapes are stable at
// this scale; absolute percentages tighten with Paper().
func Defaults() Options {
	return Options{
		PerCategory: 2,
		Sensitivity: 3,
		Cores:       8,
		Warmup:      30_000,
		Measure:     120_000,
		Seed:        42,
		Densities:   []timing.Density{timing.Gb8, timing.Gb16, timing.Gb32},
	}
}

// Paper returns the paper-scale configuration: 100 workloads, 16
// sensitivity mixes, and a measurement window covering thousands of refresh
// intervals. Expect hours of runtime on one CPU.
func Paper() Options {
	o := Defaults()
	o.PerCategory = 20
	o.Sensitivity = 16
	o.Warmup = 200_000
	o.Measure = 2_000_000
	return o
}

// Runner executes and caches simulations. All methods are safe for
// concurrent use; the runner itself fans simulations out over
// Options.Parallelism workers.
type Runner struct {
	opts      Options
	mixes     []workload.Workload
	sensitive []workload.Workload

	mu      sync.Mutex
	cache   map[store.Key]sim.Result
	running map[store.Key]*inflight[sim.Result] // deduplicates concurrent runs
	done    int

	simsRun   atomic.Int64 // simulations actually executed
	storeHits atomic.Int64 // results served from the on-disk store
	storeErrs atomic.Int64 // store writes that failed (results still returned)

	ckptWritten       atomic.Int64 // snapshots persisted to the store
	ckptWrittenBytes  atomic.Int64
	ckptRestored      atomic.Int64 // simulations started from a stored snapshot
	ckptRestoredBytes atomic.Int64
	ckptRejected      atomic.Int64 // stored snapshots found but unusable
	// ckptPending tracks deferred window-end checkpoint writes (see
	// WaitCheckpoints).
	ckptPending sync.WaitGroup

	// interrupted stops the worker pool from starting new simulations;
	// in-flight ones finish (and reach the store). See Interrupt.
	interrupted atomic.Bool

	// peerFetch, when set, is consulted on a local store miss before a
	// simulation starts. See SetPeerFetch.
	peerFetch atomic.Pointer[func(store.Key) ([]byte, bool)]
	// snapPublish, when set, receives every snapshot after it is
	// persisted locally. See SetSnapshotPublish.
	snapPublish atomic.Pointer[func(store.Key, []byte)]

	progressMu sync.Mutex // serializes the Progress callback
}

// inflight is a computation another worker is already performing; waiters
// block on done and then read res. If the computing worker panicked,
// panicked carries its panic value and waiters re-raise it instead of
// returning a zero result.
type inflight[T any] struct {
	done     chan struct{}
	res      T
	panicked any
}

// await blocks until the computation finishes and returns its result,
// re-raising the computing worker's panic if it had one.
func (fl *inflight[T]) await() T {
	<-fl.done
	if fl.panicked != nil {
		panic(fl.panicked)
	}
	return fl.res
}

// abort releases an inflight registration when the computation panics:
// deregister it so a later call can retry, record the panic for waiters,
// and wake them. Without this, waiters on the same key would block forever
// while the panic unwound past them.
func abort[T any, K comparable](r *Runner, m map[K]*inflight[T], key K, fl *inflight[T]) {
	if v := recover(); v != nil {
		r.mu.Lock()
		delete(m, key)
		r.mu.Unlock()
		fl.panicked = v
		close(fl.done)
		panic(v)
	}
}

// singleflight returns cache[key], computing it with fn exactly once across
// concurrent callers: the first caller runs fn, everyone else waits for its
// result (or its panic). fn's second return says whether to publish the
// value into the in-memory cache (false when the result is safely durable
// elsewhere and the runner runs with EphemeralResults). onStore, if
// non-nil, runs under the runner lock in the same critical section that
// publishes the result. The bool reports whether this caller did the
// computing.
func singleflight[K comparable, T any](r *Runner, cache map[K]T, running map[K]*inflight[T], key K, fn func() (T, bool), onStore func()) (T, bool) {
	r.mu.Lock()
	if v, ok := cache[key]; ok {
		r.mu.Unlock()
		return v, false
	}
	if fl, ok := running[key]; ok {
		r.mu.Unlock()
		return fl.await(), false
	}
	fl := &inflight[T]{done: make(chan struct{})}
	running[key] = fl
	r.mu.Unlock()
	defer abort(r, running, key, fl)

	v, keep := fn()

	r.mu.Lock()
	if keep {
		cache[key] = v
	}
	delete(running, key)
	if onStore != nil {
		onStore()
	}
	r.mu.Unlock()
	fl.res = v
	close(fl.done)
	return v, true
}

// NewRunner builds a Runner; workload mixes are derived deterministically
// from the options' seed.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:      opts,
		mixes:     workload.Mixes(opts.PerCategory, opts.Cores, opts.Seed),
		sensitive: workload.IntensiveMixes(opts.Sensitivity, opts.Cores, opts.Seed+1),
		cache:     map[store.Key]sim.Result{},
		running:   map[store.Key]*inflight[sim.Result]{},
	}
}

// parallelism resolves Options.Parallelism to a worker count.
func (r *Runner) parallelism() int {
	if r.opts.Parallelism > 0 {
		return r.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1), fanning out over the runner's worker budget.
// Each call brings up its own workers, so nested use cannot deadlock; with
// Parallelism 1 (or a single task) it degenerates to a plain loop on the
// calling goroutine. A panic in fn is re-raised on the caller. After
// Interrupt, remaining tasks are skipped (their slots keep whatever zero
// values the caller preallocated).
func (r *Runner) forEach(n int, fn func(int)) {
	p := r.parallelism()
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n && !r.interrupted.Load(); i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = v
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || r.interrupted.Load() {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Mixes returns the main 5-category workload set.
func (r *Runner) Mixes() []workload.Workload { return r.mixes }

// SensitivityMixes returns the all-intensive workloads of §6.2-6.4.
func (r *Runner) SensitivityMixes() []workload.Workload { return r.sensitive }

// RunSource says where a result came from.
type RunSource int

const (
	// SourceComputed: this call executed the simulation.
	SourceComputed RunSource = iota
	// SourceStore: loaded from the content-addressed store.
	SourceStore
	// SourceMemory: served from the runner's in-memory cache, or by
	// waiting on an identical in-flight run.
	SourceMemory
	// SourcePeer: fetched from another fleet worker's store through the
	// runner's peer-fetch hook (see SetPeerFetch) instead of simulating.
	SourcePeer
)

// String returns the wire spelling used by the serving layer.
func (s RunSource) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceStore:
		return "store"
	case SourceMemory:
		return "memory"
	case SourcePeer:
		return "peer"
	default:
		return fmt.Sprintf("RunSource(%d)", int(s))
	}
}

// Cached reports whether the result was served without simulating.
func (s RunSource) Cached() bool { return s != SourceComputed }

// ErrSimTimeout marks a simulation aborted by the per-sim watchdog
// (Options.SimTimeout): the run exceeded its wall-clock budget and was
// interrupted before producing a result. The failure is retryable — the
// spec is intact and nothing partial was cached — so serving layers map
// it to a retryable status and fleet orchestrators re-dispatch.
var ErrSimTimeout = errors.New("exp: simulation exceeded its wall-clock budget")

// RunInfo describes how a RunSpecInfo call was satisfied.
type RunInfo struct {
	// Source says where the result came from.
	Source RunSource
	// ResumedFrom is the snapshot cycle the computation restarted from
	// when checkpoint reuse kicked in, 0 for a cold run (and for results
	// served without simulating).
	ResumedFrom int64
	// Rejected holds one error, naming its cycle, for each snapshot the
	// computation found but could not resume from before it settled on
	// ResumedFrom (each is also counted in CheckpointsRejected).
	Rejected []error
}

// RunSpecInfo executes (or recalls) the simulation an external spec
// describes: the serving layer's entry point. The spec is normalized and
// validated first; config modifiers come from the variant registry only.
// Failures surface as errors, not panics; a watchdog abort surfaces as an
// error wrapping ErrSimTimeout. The RunInfo says where the result came
// from and, for computed runs, the checkpoint cycle it resumed from.
func (r *Runner) RunSpecInfo(spec SimSpec) (res sim.Result, info RunInfo, err error) {
	spec, err = r.PrepareSpec(spec)
	if err != nil {
		return sim.Result{}, RunInfo{}, err
	}
	mod, err := VariantMod(spec.Variant)
	if err != nil {
		return sim.Result{}, RunInfo{}, err
	}
	defer func() {
		if v := recover(); v != nil {
			if e, ok := v.(error); ok && errors.Is(e, ErrSimTimeout) {
				err = e
				return
			}
			err = fmt.Errorf("exp: run %s: %v", spec.label(), v)
		}
	}()
	res, info = r.runSpec(spec, mod)
	return res, info, nil
}

// runSpec is the shared cached-execution path: in-memory cache and
// in-flight dedup first, then the on-disk store, then a real simulation
// whose result is published to both. Concurrent calls with the same key
// share a single execution. Panics on simulation errors (RunSpecInfo
// converts them back to errors).
func (r *Runner) runSpec(spec SimSpec, mod func(*sim.Config)) (sim.Result, RunInfo) {
	key := spec.Key()
	info := RunInfo{Source: SourceMemory}
	var done int
	res, computed := singleflight(r, r.cache, r.running, key, func() (sim.Result, bool) {
		if data, ok := r.storeGet(key); ok {
			if res, err := DecodeResult(data); err == nil {
				info.Source = SourceStore
				r.storeHits.Add(1)
				return res, !r.ephemeral()
			}
			// Undecodable content under a valid envelope: schema drift or
			// logical corruption. Fall through and recompute; the Put below
			// heals the entry.
		}
		if fetch := r.peerFetch.Load(); fetch != nil {
			if data, ok := (*fetch)(key); ok {
				if res, err := DecodeResult(data); err == nil {
					// Read-through repair: persist the raw payload bytes
					// locally (byte-identity preserved — no re-encode), so
					// the next membership-aware reader finds the entry where
					// the ring says to look.
					info.Source = SourcePeer
					persisted := r.storePutRaw(key, data)
					return res, !r.ephemeral() || !persisted
				}
				// An undecodable peer payload is the fetcher's job to
				// reject; a hook that leaks one through falls back to a
				// clean recompute.
			}
		}
		cfg := spec.simConfig()
		if mod != nil {
			mod(&cfg)
		}
		var watchdog *time.Timer
		if r.opts.SimTimeout > 0 {
			stop := &atomic.Bool{}
			cfg.Stop = stop
			watchdog = time.AfterFunc(r.opts.SimTimeout, func() { stop.Store(true) })
		}
		res, err := r.simulate(spec, cfg, &info)
		if watchdog != nil {
			watchdog.Stop()
		}
		if errors.Is(err, sim.ErrInterrupted) {
			// The panic value is an error wrapping ErrSimTimeout so
			// RunSpecInfo (on the computing caller AND on singleflight
			// waiters, which re-raise it) can classify the failure as
			// retryable.
			panic(fmt.Errorf("exp: %s: %w after %v", spec.label(), ErrSimTimeout, r.opts.SimTimeout))
		}
		if err != nil {
			panic(fmt.Sprintf("exp: %s: %v", spec.label(), err))
		}
		info.Source = SourceComputed
		r.simsRun.Add(1)
		persisted := r.storePut(key, res)
		return res, !r.ephemeral() || !persisted
	}, func() {
		r.done++
		done = r.done
	})
	if computed {
		r.progress(done, spec.label())
	}
	return res, info
}

// checkpointing reports whether the compute path should read and write
// snapshots.
func (r *Runner) checkpointing() bool {
	return r.opts.Checkpoints && r.opts.Store != nil
}

// checkpointCycles enumerates the snapshot cycles worth probing for a
// spec, deepest first: the periodic checkpoints strictly inside this run's
// measurement window (possibly written by an earlier run with a shorter —
// or longer — Measure, a shorter run's window-end snapshot among them; the
// prefix key is Measure-agnostic), then the warmup boundary.
func checkpointCycles(spec SimSpec, every int64) []int64 {
	var cycles []int64
	if every > 0 {
		end := spec.Warmup + spec.Measure
		for k := (end - 1 - spec.Warmup) / every; k >= 1; k-- {
			cycles = append(cycles, spec.Warmup+k*every)
		}
	}
	return append(cycles, spec.Warmup)
}

// simulate runs one simulation, resuming from the deepest stored snapshot
// of the spec's prefix when checkpointing is on, and records in info the
// cycle the run resumed from (0 for a cold run). Any unusable snapshot —
// corrupt, version-mismatched, wrong shape — is recorded in info.Rejected
// and falls back to a shallower one and finally to a cold run; the result
// is bit-identical regardless of entry point, which the resume tests in
// internal/sim pin. A window-end checkpoint is written after simulate
// returns (see deferCheckpoint).
func (r *Runner) simulate(spec SimSpec, cfg sim.Config, info *RunInfo) (sim.Result, error) {
	if !r.checkpointing() {
		return sim.Run(cfg)
	}
	every := r.opts.CheckpointEvery
	sink := func(cycle int64, data []byte) {
		pkey := spec.PrefixKey(cycle)
		if err := r.opts.Store.PutKind(pkey, store.KindSnapshot, data); err != nil {
			r.storeErrs.Add(1)
			return
		}
		r.ckptWritten.Add(1)
		r.ckptWrittenBytes.Add(int64(len(data)))
		if publish := r.snapPublish.Load(); publish != nil {
			(*publish)(pkey, data)
		}
	}
	for _, cycle := range checkpointCycles(spec, every) {
		pkey := spec.PrefixKey(cycle)
		data, ok := r.opts.Store.GetKind(pkey, store.KindSnapshot)
		if !ok {
			if fetch := r.peerFetch.Load(); fetch != nil {
				data, ok = (*fetch)(pkey)
			}
		}
		if !ok {
			continue
		}
		res, tail, err := sim.ResumeRun(cfg, data, every, sink)
		if errors.Is(err, sim.ErrInterrupted) {
			return sim.Result{}, err
		}
		if err != nil {
			// Unusable snapshot (stale layout, corruption the container
			// caught, a shape mismatch): try a shallower entry point.
			r.ckptRejected.Add(1)
			info.Rejected = append(info.Rejected, fmt.Errorf("snapshot at cycle %d: %w", cycle, err))
			continue
		}
		r.ckptRestored.Add(1)
		r.ckptRestoredBytes.Add(int64(len(data)))
		info.ResumedFrom = cycle
		r.deferCheckpoint(tail)
		return res, nil
	}
	res, tail, err := sim.RunWithCheckpoints(cfg, every, sink)
	r.deferCheckpoint(tail)
	return res, err
}

// deferCheckpoint runs a simulation's deferred window-end checkpoint write
// (see sim.RunWithCheckpoints) on a goroutine of its own, so serializing
// and storing the snapshot stays off the path that returns the Result.
// There is one per finished simulation, holding its finished machine for
// as long as one snapshot write takes. WaitCheckpoints waits for them.
func (r *Runner) deferCheckpoint(tail func()) {
	if tail == nil {
		return
	}
	r.ckptPending.Add(1)
	go func() {
		defer r.ckptPending.Done()
		tail()
	}()
}

// WaitCheckpoints blocks until the deferred checkpoint write of every
// simulation that has returned is done: its snapshot is in the store (or
// counted in StoreErrs) and handed to the publish hook. Call it when no
// simulation is running and before the store's directory goes away;
// serve.Server.Drain does.
func (r *Runner) WaitCheckpoints() { r.ckptPending.Wait() }

// ephemeral reports whether completed results should be dropped from RAM
// (EphemeralResults is meaningful only with a durable store behind it).
func (r *Runner) ephemeral() bool {
	return r.opts.EphemeralResults && r.opts.Store != nil
}

// RunAll executes every spec through the cached/stored path, fanning out
// over the runner's worker budget, and returns the results keyed by spec
// content address — the input shape Experiment.Assemble consumes. Specs
// must be canonical (runner-built enumerations are; external ones go
// through PrepareSpec); variants resolve through the variant registry.
// It panics on invalid specs or simulation errors — but every variant is
// resolved up front, so a bad spec fails before the first simulation
// starts, not hours into a sweep. After Interrupt the partial
// map is withheld (ok=false): assembling from it would either panic on a
// missing key or render a misleading table.
func (r *Runner) RunAll(specs []SimSpec) (res Results, ok bool) {
	mods := make([]func(*sim.Config), len(specs))
	for i, s := range specs {
		mod, err := VariantMod(s.Variant)
		if err != nil {
			panic(err)
		}
		mods[i] = mod
	}
	out := make([]sim.Result, len(specs))
	r.forEach(len(specs), func(i int) {
		out[i], _ = r.runSpec(specs[i], mods[i])
	})
	if r.Interrupted() {
		return nil, false
	}
	res = make(Results, len(specs))
	for i := range specs {
		res.Add(specs[i], out[i])
	}
	return res, true
}

// storeGet consults the on-disk store, if configured.
func (r *Runner) storeGet(key store.Key) ([]byte, bool) {
	if r.opts.Store == nil {
		return nil, false
	}
	return r.opts.Store.Get(key)
}

// storePut publishes a computed result to the store, if configured,
// reporting whether the entry is durably on disk. A failed write is
// counted but not fatal: the result is still correct, the cache is just
// colder than it could be.
func (r *Runner) storePut(key store.Key, res sim.Result) bool {
	if r.opts.Store == nil {
		return false
	}
	data, err := EncodeResult(res)
	if err == nil {
		err = r.opts.Store.Put(key, data)
	}
	if err != nil {
		r.storeErrs.Add(1)
		return false
	}
	return true
}

// storePutRaw persists already-encoded result bytes (a verified peer
// payload) under key, reporting whether they are durably on disk.
func (r *Runner) storePutRaw(key store.Key, data []byte) bool {
	if r.opts.Store == nil {
		return false
	}
	if err := r.opts.Store.Put(key, data); err != nil {
		r.storeErrs.Add(1)
		return false
	}
	return true
}

// SetPeerFetch installs (or, with nil, removes) the runner's peer-fetch
// hook: on a local store miss the hook is consulted — inside the
// singleflight, so concurrent identical specs share one fetch — and a
// payload it returns is decoded, served as SourcePeer, and persisted
// locally instead of simulating. The serving layer installs the sharded
// warm-store fetcher here; the hook must already hash-verify what it
// returns. Safe to call concurrently with running simulations.
func (r *Runner) SetPeerFetch(fetch func(store.Key) ([]byte, bool)) {
	if fetch == nil {
		r.peerFetch.Store(nil)
		return
	}
	r.peerFetch.Store(&fetch)
}

// SetSnapshotPublish installs (or, with nil, removes) the runner's
// snapshot-publish hook: every checkpoint is handed to it (prefix key +
// container bytes) right after it is persisted locally. The serving
// layer installs the replica-push path here, so snapshots reach the
// prefix key's ring owners the same way computed results do and a retry
// on a different fleet worker can hedge-fetch them. The hook must not
// block: publication is replication, never part of the simulation path.
func (r *Runner) SetSnapshotPublish(publish func(store.Key, []byte)) {
	if publish == nil {
		r.snapPublish.Store(nil)
		return
	}
	r.snapPublish.Store(&publish)
}

// SimsRun returns how many simulations this runner actually executed
// (cache and store hits excluded).
func (r *Runner) SimsRun() int64 { return r.simsRun.Load() }

// StoreHits returns how many results were served from the on-disk store.
func (r *Runner) StoreHits() int64 { return r.storeHits.Load() }

// StoreErrs returns how many store writes failed.
func (r *Runner) StoreErrs() int64 { return r.storeErrs.Load() }

// CheckpointsWritten returns how many snapshots this runner persisted.
func (r *Runner) CheckpointsWritten() int64 { return r.ckptWritten.Load() }

// CheckpointBytesWritten returns the total snapshot bytes persisted.
func (r *Runner) CheckpointBytesWritten() int64 { return r.ckptWrittenBytes.Load() }

// CheckpointsRestored returns how many simulations started from a stored
// snapshot instead of cycle 0.
func (r *Runner) CheckpointsRestored() int64 { return r.ckptRestored.Load() }

// CheckpointBytesRestored returns the total snapshot bytes restored.
func (r *Runner) CheckpointBytesRestored() int64 { return r.ckptRestoredBytes.Load() }

// CheckpointsRejected returns how many stored snapshots a simulation found
// but could not resume from (each fell back to a shallower entry point).
func (r *Runner) CheckpointsRejected() int64 { return r.ckptRejected.Load() }

// Interrupt makes the runner stop starting new simulations: worker pools
// drain after their current task, so every completed result has already
// reached the store and a later run with the same store resumes where this
// one stopped. RunAll then withholds its partial results and
// RunExperiment returns no table (see Interrupted).
func (r *Runner) Interrupt() { r.interrupted.Store(true) }

// Interrupted reports whether Interrupt was called.
func (r *Runner) Interrupted() bool { return r.interrupted.Load() }

func (r *Runner) progress(done int, label string) {
	if r.opts.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.opts.Progress(done, label)
}

// darpVariant builds a sim.Config modifier that swaps in a custom DARP
// configuration (ablations).
func darpVariant(opts core.DARPOptions) func(*sim.Config) {
	return func(c *sim.Config) {
		c.Policy = func(v sched.View, seed int64) sched.RefreshPolicy {
			return core.NewDARP(v, opts, seed)
		}
	}
}
