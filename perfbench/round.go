package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/serve"
	"dsarp/internal/sim"
	"dsarp/internal/store"
)

// workers is the in-process dsarpd's worker pool. Load comes from one
// closed-loop caller, a RunSpecInfo loop or an HTTP client, which issues
// its next call only after the previous one returned: on a 2-CPU machine a
// second one mostly measured the two callers contending with each other,
// the server and the GC, and spread runs of the same code by 15-40%.
const workers = 2

// setupReps is how many times a round sets up its environment, so that
// setup_s is a median over many set-ups. All but the last are torn down at
// once.
const setupReps = 5

// env is one round's system under test: a store-less runner for batch
// simulations, and an in-process dsarpd over a fresh store.
type env struct {
	plan   *plan
	batch  *exp.Runner
	dir    string
	svc    *serve.Server
	srv    *httptest.Server
	client *http.Client
	// Request bodies of the cold and extend specs, canonical order.
	coldBodies, extendBodies [][]byte
}

// newEnv builds a round's inputs and servers: the set-up that setup_s
// times.
func newEnv(w benchWorkload, seed int64, tmpRoot string) (*env, error) {
	e := &env{plan: newPlan(w, seed), batch: exp.NewRunner(exp.Options{})}
	p := e.plan
	for _, list := range [][]exp.SimSpec{p.batch, p.cold, p.extend} {
		for i := range list {
			s, err := e.batch.PrepareSpec(list[i])
			if err != nil {
				return nil, err
			}
			list[i] = s
		}
	}
	var err error
	if e.coldBodies, err = marshalAll(p.cold); err != nil {
		return nil, err
	}
	if e.extendBodies, err = marshalAll(p.extend); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(tmpRoot, "store-"); err != nil {
		return nil, err
	}
	st, err := store.Open(e.dir, store.Options{Generation: exp.SchemaVersion})
	if err != nil {
		os.RemoveAll(e.dir)
		return nil, err
	}
	// Cold runs write a checkpoint at the warmup boundary and, with this
	// spacing, no other, so extend resumes from the warmup boundary. A
	// resume from a mid-window checkpoint can step a few cycles more or
	// fewer than the plain run (Result.SteppedCycles differs for about one
	// spec in ten), which the digest gate would fail.
	runner := exp.NewRunner(exp.Options{
		Store:            st,
		EphemeralResults: true,
		Checkpoints:      true,
		CheckpointEvery:  w.sz.svcMeasure,
	})
	e.svc = serve.New(serve.Config{Runner: runner, Workers: workers})
	e.srv = httptest.NewServer(e.svc.Handler())
	e.client = e.srv.Client()
	return e, nil
}

func marshalAll(specs []exp.SimSpec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// close stops the servers and deletes the store.
func (e *env) close() error {
	e.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.svc.Drain(ctx)
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// round is what one round measured.
type round struct {
	// setups are the round's set-up times; the last set-up is the one the
	// round runs on.
	setups []time.Duration
	wall   time.Duration
	traced bool
	// The computing phase (batch, or cold for the service workload): its
	// specs and results in canonical order, and its wall time.
	computeSpecs   []exp.SimSpec
	computeResults []sim.Result
	computeWall    time.Duration
	// computeMs is each computing-phase call's latency, by spec index: a
	// RunSpecInfo call, or a cold request.
	computeMs []float64
	// Request latencies of the service phases.
	coldMs, warmMs, extendMs []float64
	// ref is the reference kernel's times during each phase, none in a
	// profiled round; computePhase is the computing phase's.
	ref          [numPhases][]float64
	computePhase int
	// Go runtime activity during the computing phase.
	mallocs, allocBytes, gcs uint64
	// scraped is the server's /metrics page at the end of the round,
	// summed over label sets.
	scraped map[string]float64

	attempted, failed int
	problems          []string
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// profiler accumulates CPU-profile self time by layer across phases.
type profiler struct {
	buckets map[string]int64
	buf     bytes.Buffer
}

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return addProfile(p.buf.Bytes(), p.buckets)
}

// The phases of a round, as the reference kernel's timings are kept.
const (
	phaseBatch = iota
	phaseCold
	phaseWarm
	phaseExtend
	numPhases
)

// timeRef times the reference kernel during phase ph, unless the round is
// profiled.
func (r *round) timeRef(ph int) {
	if !r.traced {
		r.ref[ph] = append(r.ref[ph], refTimeMs())
	}
}

// scale converts host times measured during phase ph to the nominal host
// speed (see refspeed.go).
func (r *round) scale(ph int) float64 {
	return refNominalMs / median(r.ref[ph])
}

// roundScale is scale over every phase of the round.
func (r *round) roundScale() float64 {
	var all []float64
	for _, xs := range r.ref {
		all = append(all, xs...)
	}
	return refNominalMs / median(all)
}

// refTotal is the time the round spent in the reference kernel.
func (r *round) refTotal() time.Duration {
	ms := 0.0
	for _, xs := range r.ref {
		ms += sum(xs)
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// runRound sets up a fresh environment, runs the batch pass (simulator
// workloads) and the three service phases, checks every digest against
// want, and tears the environment down. A non-nil prof profiles the
// round's primary phase: the batch pass, or the warm phase of the service
// workload.
func runRound(w benchWorkload, seed int64, tmpRoot string, want pinSet, prof *profiler) (*round, error) {
	rd := &round{traced: prof != nil}
	// Every round starts from a collected heap, not from whatever of the
	// previous round's garbage the GC has not yet reclaimed.
	runtime.GC()
	var e *env
	var err error
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				rd.fail("teardown: %v", err)
			}
		}
		t0 := time.Now()
		if e, err = newEnv(w, seed, tmpRoot); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rd.setups = append(rd.setups, time.Since(t0))
	}
	defer func() {
		if err := e.close(); err != nil {
			rd.fail("teardown: %v", err)
		}
	}()
	p := e.plan
	start := time.Now()
	var cold []simReply
	if len(p.batch) > 0 {
		rd.computeSpecs, rd.computePhase = p.batch, phaseBatch
		err = inPhase(prof, func() {
			rd.computing(func() { rd.computeResults = e.runBatch(rd, want.Batch) })
		})
		cold, _, _ = e.runCold(rd, want.Cold)
		e.runWarm(rd, cold)
	} else {
		rd.computeSpecs, rd.computePhase = p.cold, phaseCold
		rd.computing(func() { cold, rd.computeResults, rd.computeMs = e.runCold(rd, want.Cold) })
		err = inPhase(prof, func() { e.runWarm(rd, cold) })
	}
	if err != nil {
		return nil, err
	}
	e.runExtend(rd, want.Extend)
	rd.wall = time.Since(start) - rd.refTotal()
	if rd.scraped, err = e.scrape(); err != nil {
		rd.fail("scrape /metrics: %v", err)
	}
	return rd, nil
}

// computing runs the round's computing phase, recording its wall time and
// the Go runtime's allocation and GC activity during it.
func (rd *round) computing(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	fn()
	rd.computeWall = time.Since(t)
	runtime.ReadMemStats(&after)
	rd.mallocs = after.Mallocs - before.Mallocs
	rd.allocBytes = after.TotalAlloc - before.TotalAlloc
	rd.gcs = uint64(after.NumGC - before.NumGC)
}

// inPhase runs fn, CPU-profiled when prof is non-nil.
func inPhase(prof *profiler, fn func()) error {
	if prof == nil {
		fn()
		return nil
	}
	if err := prof.start(); err != nil {
		return err
	}
	fn()
	return prof.stop()
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// runBatch simulates every batch spec through exp.Runner.RunSpecInfo and
// checks the digest of the encoded results.
func (e *env) runBatch(rd *round, want string) []sim.Result {
	specs := e.plan.batch
	results := make([]sim.Result, len(specs))
	lat := make([]float64, len(specs))
	failed := false
	for _, i := range e.plan.batchOrder {
		rd.timeRef(phaseBatch)
		t := time.Now()
		res, info, err := e.batch.RunSpecInfo(specs[i])
		lat[i] = msSince(t)
		if err == nil && info.Source != exp.SourceComputed {
			err = fmt.Errorf("served from %s, want computed", info.Source)
		}
		if err != nil {
			rd.fail("batch %s %s: %v", specs[i].Name, specs[i].Mechanism, err)
			failed = true
		}
		results[i] = res
	}
	rd.attempted += len(specs)
	rd.computeMs = lat
	if !failed {
		enc, err := encodeAll(results)
		if err != nil {
			rd.fail("encode batch: %v", err)
		} else if got := digest(enc); got != want {
			rd.fail("batch digest %s, pinned %s", got, want)
		}
	}
	return results
}

// simReply is the POST /v1/sim response.
type simReply struct {
	Key         string          `json:"key"`
	Source      string          `json:"source"`
	Cached      bool            `json:"cached"`
	ResumedFrom int64           `json:"resumed_from"`
	Result      json.RawMessage `json:"result"`
}

// post sends one spec to /v1/sim; any non-200 status is an error.
func (e *env) post(body []byte) (simReply, error) {
	var r simReply
	resp, err := e.client.Post(e.srv.URL+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("decode reply: %w", err)
	}
	return r, nil
}

// postPhase posts bodies[i] for every i in order, checking each reply
// with check, and returns the replies by spec index (the last one wins for
// repeated specs) and every request's latency. The reference kernel runs
// before every refEvery-th request.
func (e *env) postPhase(rd *round, ph int, refEvery int, bodies [][]byte, order []int, check func(i int, r simReply) error) ([]simReply, []float64) {
	phase := [numPhases]string{"batch", "cold", "warm", "extend"}[ph]
	replies := make([]simReply, len(bodies))
	lat := make([]float64, len(order))
	for k, i := range order {
		if k%refEvery == 0 {
			rd.timeRef(ph)
		}
		t := time.Now()
		r, err := e.post(bodies[i])
		lat[k] = msSince(t)
		if err == nil {
			err = check(i, r)
		}
		if err != nil {
			rd.fail("%s request %d: %v", phase, k, err)
		}
		replies[i] = r
	}
	rd.attempted += len(order)
	return replies, lat
}

// decodeReplies compacts each reply's result back to exp.EncodeResult
// bytes, decodes it, and checks the digest of the bytes.
func decodeReplies(rd *round, phase string, replies []simReply, want string) []sim.Result {
	enc := make([][]byte, len(replies))
	results := make([]sim.Result, len(replies))
	ok := true
	for i, r := range replies {
		var buf bytes.Buffer
		if err := json.Compact(&buf, r.Result); err != nil {
			rd.fail("%s result %d: %v", phase, i, err)
			ok = false
			continue
		}
		res, err := exp.DecodeResult(buf.Bytes())
		if err != nil {
			rd.fail("%s result %d: %v", phase, i, err)
			ok = false
			continue
		}
		enc[i], results[i] = buf.Bytes(), res
	}
	if ok {
		if got := digest(enc); got != want {
			rd.fail("%s digest %s, pinned %s", phase, got, want)
		}
	}
	return results
}

// runCold posts every cold spec once; each must be simulated. It returns
// the replies, decoded results and latencies by spec index.
func (e *env) runCold(rd *round, want string) ([]simReply, []sim.Result, []float64) {
	replies, lat := e.postPhase(rd, phaseCold, 1, e.coldBodies, e.plan.coldOrder, func(_ int, r simReply) error {
		if r.Source != exp.SourceComputed.String() {
			return fmt.Errorf("source %q, want computed", r.Source)
		}
		return nil
	})
	rd.coldMs = append(rd.coldMs, lat...)
	byIndex := make([]float64, len(lat))
	for k, i := range e.plan.coldOrder {
		byIndex[i] = lat[k]
	}
	return replies, decodeReplies(rd, "cold", replies, want), byIndex
}

// runWarm re-posts cold specs; each must be served without simulating and
// carry the cold reply's key and result bytes exactly.
func (e *env) runWarm(rd *round, cold []simReply) {
	_, lat := e.postPhase(rd, phaseWarm, len(e.coldBodies), e.coldBodies, e.plan.warmOrder, func(i int, r simReply) error {
		if !r.Cached {
			return fmt.Errorf("source %q, want a cached result", r.Source)
		}
		if r.Key != cold[i].Key || !bytes.Equal(r.Result, cold[i].Result) {
			return fmt.Errorf("reply differs from the cold reply for %s", cold[i].Key)
		}
		return nil
	})
	rd.warmMs = append(rd.warmMs, lat...)
}

// runExtend posts the cold specs with a longer measurement window; each
// must resume from a checkpoint the cold phase wrote.
func (e *env) runExtend(rd *round, want string) {
	replies, lat := e.postPhase(rd, phaseExtend, 1, e.extendBodies, e.plan.extendOrder, func(_ int, r simReply) error {
		if r.Source != exp.SourceComputed.String() || r.ResumedFrom <= 0 {
			return fmt.Errorf("source %q resumed_from %d, want a resumed computation", r.Source, r.ResumedFrom)
		}
		return nil
	})
	rd.extendMs = append(rd.extendMs, lat...)
	decodeReplies(rd, "extend", replies, want)
}

// scrape reads the server's /metrics page and sums each series over its
// label sets.
func (e *env) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics sums Prometheus text-format samples by series name.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			name = name[:brace]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
