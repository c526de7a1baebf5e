package fleet

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/store"
	"dsarp/internal/telemetry"
)

func testConfig(urls ...string) Config {
	return Config{
		Workers:        urls,
		RequestTimeout: 2 * time.Minute,
		ProbeTimeout:   time.Second,
		HealthInterval: 100 * time.Millisecond,
		BaseBackoff:    20 * time.Millisecond,
		MaxBackoff:     300 * time.Millisecond,
		Seed:           1,
	}
}

func mustOrch(t *testing.T, cfg Config) *Orchestrator {
	t.Helper()
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func tinySpec(name string) exp.SimSpec {
	return exp.SimSpec{
		Name:           name,
		BenchmarkNames: []string{"h264.encode"},
		Mechanism:      "REFab",
		DensityGb:      8,
		Seed:           7,
	}
}

// TestRunExperimentMatchesLocal: a two-worker fleet reproduces a registry
// experiment byte-identically to a single-node local run, with every spec
// accounted for.
func TestRunExperimentMatchesLocal(t *testing.T) {
	opts := tinyOpts()
	local := exp.NewRunner(opts)
	golden, err := local.RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startWorker(t, opts), startWorker(t, opts)
	o := mustOrch(t, testConfig(w1.url(), w2.url()))
	r := exp.NewRunner(opts) // enumeration/assembly only; runs nothing
	table, err := o.RunExperiment(context.Background(), r, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != golden.String() {
		t.Errorf("fleet table diverged from local run:\n got:\n%s\nwant:\n%s", table, golden)
	}
	if n := r.SimsRun(); n != 0 {
		t.Errorf("assembly runner executed %d simulations, want 0", n)
	}
	e, _ := exp.LookupExperiment("fig7")
	st := o.Stats()
	if got, want := st.Dispatched+st.LocalHits, int64(len(e.Specs(r))); got != want {
		t.Errorf("%d specs satisfied, enumeration has %d", got, want)
	}
	if st.Failed != 0 {
		t.Errorf("%d permanent failures on a healthy fleet", st.Failed)
	}
}

// TestPermanentFailureFailsSpecNotRun: a 400 fails only the offending
// spec; every other spec still completes and is returned.
func TestPermanentFailureFailsSpecNotRun(t *testing.T) {
	w := startWorker(t, tinyOpts())
	o := mustOrch(t, testConfig(w.url()))

	bad := tinySpec("bad")
	bad.Mechanism = "MAGIC" // the worker's PrepareSpec rejects this: 400
	specs := []exp.SimSpec{tinySpec("ok-a"), bad, tinySpec("ok-b")}
	res, err := o.Run(context.Background(), "mixed", specs)

	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if len(runErr.Failed) != 1 || runErr.Failed[0].Index != 1 {
		t.Fatalf("failed = %+v, want exactly spec 1", runErr.Failed)
	}
	if !strings.Contains(runErr.Failed[0].Err.Error(), "400") {
		t.Errorf("failure not classified as a 400: %v", runErr.Failed[0].Err)
	}
	for _, i := range []int{0, 2} {
		if _, ok := res[specs[i].Key()]; !ok {
			t.Errorf("spec %d missing from results despite being valid", i)
		}
	}
	if o.Stats().Retries != 0 {
		t.Errorf("permanent failure was retried %d times", o.Stats().Retries)
	}
}

// TestBackpressure429IsTransient: a worker with a one-slot queue bounces
// concurrent dispatches with 429 + Retry-After; the orchestrator honors
// the wait and completes every spec anyway.
func TestBackpressure429IsTransient(t *testing.T) {
	tw := startWorkerQueue(t, tinyOpts(), 1, 1)

	cfg := testConfig(tw.url())
	cfg.Concurrency = 4
	o := mustOrch(t, cfg)
	specs := []exp.SimSpec{tinySpec("bp-a"), tinySpec("bp-b"), tinySpec("bp-c"), tinySpec("bp-d")}
	for i := range specs {
		// Distinct saturating runs long enough to hold the single queue
		// slot while the other dispatchers arrive.
		specs[i].BenchmarkNames = []string{"stream.triad"}
		specs[i].Seed = int64(100 + i)
		specs[i].Measure = 300_000
	}
	res, err := o.Run(context.Background(), "backpressure", specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) {
		t.Errorf("%d results, want %d", len(res), len(specs))
	}
	if o.Stats().Retries == 0 {
		t.Error("no retries recorded; the one-slot queue should have bounced concurrent dispatches")
	}
}

// TestWorkerDeathRedispatchesToSurvivor: killing a worker mid-run loses
// nothing — its specs are re-dispatched to the survivor.
func TestWorkerDeathRedispatchesToSurvivor(t *testing.T) {
	opts := tinyOpts()
	w1, w2 := startWorker(t, opts), startWorker(t, opts)
	o := mustOrch(t, testConfig(w1.url(), w2.url()))

	// Kill w2 shortly after the run starts; never restart it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		w2.kill()
	}()

	r := exp.NewRunner(opts)
	table, err := o.RunExperiment(context.Background(), r, "fig7")
	<-done
	if err != nil {
		t.Fatal(err)
	}
	golden, err := exp.NewRunner(opts).RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != golden.String() {
		t.Error("table diverged after worker death")
	}
}

// TestResumeFromStore: an interrupted run resumes from the local store —
// the second orchestrator re-simulates nothing, total fleet work equals
// one cold run, and the trace-of-record both phases append to reports
// each run separately.
func TestResumeFromStore(t *testing.T) {
	opts := tinyOpts()
	w := startWorker(t, opts)
	tracePath := filepath.Join(t.TempDir(), "resume.jsonl")
	localDir := t.TempDir()

	r := exp.NewRunner(opts)
	e, ok := exp.LookupExperiment("fig7")
	if !ok {
		t.Fatal("no fig7")
	}
	specs := e.Specs(r)
	if len(specs) < 4 {
		t.Fatalf("fig7 has only %d specs; resume test needs a few", len(specs))
	}

	// Phase 1: cancel once the worker has computed a few results.
	st1, err := store.Open(localDir, store.Options{Generation: exp.SchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := telemetry.NewRecorder(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(w.url())
	cfg.Store = st1
	cfg.Trace = rec1
	cfg.Concurrency = 2
	o1 := mustOrch(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel only once three results have actually landed in the
		// orchestrator's local store — that is the durable progress the
		// resumed run gets to reuse (a sim the worker ran whose response
		// never arrived is recoverable but not guaranteed local).
		for {
			persisted := 0
			for k := range uniqueKeys(specs) {
				if st1.Contains(k) {
					persisted++
				}
			}
			if persisted >= 3 {
				cancel()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	_, err = o1.Run(ctx, "fig7", specs)
	if err == nil {
		t.Fatal("phase 1 finished before it could be interrupted; lower the cancel threshold")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 error = %v, want context.Canceled", err)
	}
	if err := rec1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh orchestrator over the same local store completes
	// the run, appending to the same trace file.
	simsBefore := waitSimsQuiesce(t, w)
	st2, err := store.Open(localDir, store.Options{Generation: exp.SchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := telemetry.NewRecorder(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(w.url())
	cfg2.Store = st2
	cfg2.Trace = rec2
	o2 := mustOrch(t, cfg2)
	res, err := o2.Run(context.Background(), "fig7", specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
	table, err := e.Assemble(r, res)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := exp.NewRunner(opts).RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != golden.String() {
		t.Error("resumed run's table diverged from a single-node run")
	}

	// Resume must be cheaper than a cold run: the worker simulated
	// strictly less in phase 2 than the whole run needs, and nothing was
	// ever simulated twice across both phases.
	unique := int64(len(uniqueKeys(specs)))
	phase2 := w.simsRun() - simsBefore
	if phase2 >= unique {
		t.Errorf("phase 2 ran %d sims, not strictly less than a cold run's %d", phase2, unique)
	}
	if total := w.simsRun(); total != unique {
		t.Errorf("fleet simulated %d total across both phases, want exactly %d (no recompute)", total, unique)
	}

	// The trace holds both runs; the second terminates every spec, none
	// failed, and its local-store terminals are exactly the store hits.
	spans, err := telemetry.ReadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := telemetry.BuildReports(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("trace holds %d runs, want 2", len(reports))
	}
	phase2Rep := reports[1]
	if len(phase2Rep.Chains) != len(specs) {
		t.Errorf("phase 2 traced %d chains, want %d", len(phase2Rep.Chains), len(specs))
	}
	localStore := int64(0)
	for _, c := range phase2Rep.Chains {
		switch {
		case c.Terminal == nil:
			t.Errorf("phase 2 spec %s (%s) has no terminal span", c.Spec, c.Label)
		case c.Terminal.Status == "failed":
			t.Errorf("phase 2 spec %s (%s) failed: %s", c.Spec, c.Label, c.Terminal.Error)
		case c.Terminal.Source == "local-store":
			localStore++
		}
	}
	hits := o2.Stats().LocalHits
	if hits < 3 {
		t.Errorf("phase 2 local store hits = %d, want >= 3 (phase 1 persisted at least that many)", hits)
	}
	if localStore != hits {
		t.Errorf("phase 2 trace has %d local-store terminals, orchestrator counted %d local hits", localStore, hits)
	}
}

// waitSimsQuiesce waits for the worker's in-flight simulations (which an
// aborted HTTP request does not cancel) to settle, returning the stable
// count.
func waitSimsQuiesce(t *testing.T, w *testWorker) int64 {
	t.Helper()
	prev := w.simsRun()
	for i := 0; i < 200; i++ {
		time.Sleep(25 * time.Millisecond)
		cur := w.simsRun()
		if cur == prev && i > 2 {
			return cur
		}
		prev = cur
	}
	return prev
}

func uniqueKeys(specs []exp.SimSpec) map[store.Key]bool {
	m := map[store.Key]bool{}
	for _, s := range specs {
		m[s.Key()] = true
	}
	return m
}

// TestBackoffCappedAndJittered pins the retry delay envelope.
func TestBackoffCappedAndJittered(t *testing.T) {
	o := mustOrch(t, testConfig("http://unused"))
	o.cfg.BaseBackoff = 100 * time.Millisecond
	o.cfg.MaxBackoff = time.Second
	for attempt := 0; attempt < 20; attempt++ {
		base := o.cfg.BaseBackoff << attempt
		if base > o.cfg.MaxBackoff || base <= 0 {
			base = o.cfg.MaxBackoff
		}
		for i := 0; i < 50; i++ {
			d := o.backoff(attempt)
			if d < base/2 || d > base*3/2 {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base/2, base*3/2)
			}
		}
	}
}

// TestNoWorkersRejected: an orchestrator needs at least one worker.
func TestNoWorkersRejected(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty worker list")
	}
}
