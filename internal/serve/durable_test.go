package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/store"
)

// startDurable builds a service over an explicit store (its jobs/
// subdirectory holds the job headers) with no automatic Drain: durability
// tests stop their servers deliberately — crash() for a kill -9 stand-in,
// shutdown() for a clean exit — and often start a successor over the same
// store.
func startDurable(t *testing.T, opts exp.Options, cfg Config, st *store.Store) *testService {
	t.Helper()
	opts.Store = st
	r := exp.NewRunner(opts)
	cfg.Runner = r
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	return &testService{Server: srv, runner: r, store: st, ts: ts}
}

func openStoreDir(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// crash is the in-process kill -9: workers stop after at most their
// current task, everything queued is abandoned, nothing is drained.
func (s *testService) crash() {
	s.halt()
	s.ts.Close()
}

func (s *testService) shutdown(t *testing.T) {
	t.Helper()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// checkFullStream asserts the canonical complete event history for total
// tasks: each index exactly once, done counters 1..total, a terminal done
// event, no failures.
func checkFullStream(t *testing.T, events []jobEvent, total int) {
	t.Helper()
	if len(events) != total+1 {
		t.Fatalf("%d events, want %d tasks + done", len(events), total)
	}
	seen := map[int]bool{}
	for i, ev := range events[:total] {
		if ev.Type != eventTask {
			t.Errorf("event %d type %q", i, ev.Type)
		}
		if ev.Done != i+1 || ev.Total != total {
			t.Errorf("event %d progress %d/%d, want %d/%d", i, ev.Done, ev.Total, i+1, total)
		}
		if ev.Error != "" {
			t.Errorf("task %d failed: %s", ev.Index, ev.Error)
		}
		if seen[ev.Index] {
			t.Errorf("task %d completed twice in the stream", ev.Index)
		}
		seen[ev.Index] = true
	}
	for i := 0; i < total; i++ {
		if !seen[i] {
			t.Errorf("no event for task %d", i)
		}
	}
	if last := events[total]; last.Type != eventDone || last.Done != total {
		t.Errorf("terminal event %+v", last)
	}
}

// TestSSEAcrossRestart is the tentpole acceptance: an experiment job
// hard-stopped mid-run survives a restart on the same store directory —
// same job ID, a full ordered SSE replay with no duplicate or missing
// events, and a table byte-identical to a local run.
func TestSSEAcrossRestart(t *testing.T) {
	opts := tinyOpts()
	dir := t.TempDir()

	a := startDurable(t, opts, Config{Workers: 1, MaxQueue: 512},
		openStoreDir(t, filepath.Join(dir, "store")))
	resp, body := a.post(t, "/v1/experiments/fig7", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fig7: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	if sw.Total < 2 {
		t.Fatalf("fig7 has %d specs; need >=2 for a mid-job crash", sw.Total)
	}

	// Let at least one task land durably, then pull the plug.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, sb := a.get(t, "/v1/jobs/"+sw.ID)
		var st jobStatus
		json.Unmarshal(sb, &st)
		if st.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no task completed before the crash window")
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.crash()

	b := startDurable(t, opts, Config{Workers: 4, MaxQueue: 512},
		openStoreDir(t, filepath.Join(dir, "store")))
	defer b.shutdown(t)

	// The same job ID resolves immediately on the successor.
	resp, body = b.get(t, "/v1/jobs/"+sw.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s after restart: %d %s", sw.ID, resp.StatusCode, body)
	}

	checkFullStream(t, readSSE(t, b, sw.ID), sw.Total)

	resp, tbl := b.get(t, "/v1/jobs/"+sw.ID+"/table")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table after restart: %d %s", resp.StatusCode, tbl)
	}
	if want := localTable(t, opts, "fig7"); string(tbl) != want {
		t.Errorf("post-crash table diverged from local compute:\n got:\n%s\nwant:\n%s", tbl, want)
	}

	// The replay replays: a second subscriber sees the identical history.
	checkFullStream(t, readSSE(t, b, sw.ID), sw.Total)
}

// TestAdoptTornFinalLine: a finished job's file is its header alone. A
// file written by an older server also carries task lines, and a crash
// can tear its last one; the task lines are ignored, the torn tail is
// dropped, and the job adopts cleanly from its header and the store.
func TestAdoptTornFinalLine(t *testing.T) {
	opts := tinyOpts()
	dir := t.TempDir()

	a := startDurable(t, opts, Config{Workers: 2},
		openStoreDir(t, filepath.Join(dir, "store")))
	resp, body := a.post(t, "/v1/sweep", sweepRequest{Name: "torn",
		Specs: []exp.SimSpec{tinySpec("torn-a"), tinySpec("torn-b")}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	waitJobDone(t, a, sw.ID)
	a.shutdown(t)

	path := filepath.Join(dir, "store", "jobs", sw.ID+".jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 1 {
		t.Errorf("finished job's file holds %d lines, want its header alone", n)
	}

	prep, err := a.runner.PrepareSpec(tinySpec("torn-a"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(`{"type":"task","index":0,"key":%q,"source":"computed"}`, prep.Key())
	if _, err := f.WriteString(line + "\n" + `{"type":"task","ind`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := startDurable(t, opts, Config{Workers: 2},
		openStoreDir(t, filepath.Join(dir, "store")))
	defer b.shutdown(t)
	st := waitJobDone(t, b, sw.ID)
	if st.Done != 2 || st.Errors != 0 {
		t.Fatalf("adopted status %+v, want 2/2 clean", st)
	}
	if n := b.runner.SimsRun(); n != 0 {
		t.Errorf("adoption of a complete job ran %d simulations", n)
	}
}

// TestAdoptRecomputesGCdEntry: two restarts in a row. A finished job
// whose store entry was GC'd is pending again after restart one — the
// successor recomputes it exactly once. Restart two finds the entry back
// in the store and runs nothing: the outcome comes back as a store hit
// with the original key and result bytes.
func TestAdoptRecomputesGCdEntry(t *testing.T) {
	opts := tinyOpts()
	storeDir := filepath.Join(t.TempDir(), "store")

	stA := openStoreDir(t, storeDir)
	a := startDurable(t, opts, Config{Workers: 2}, stA)
	resp, body := a.post(t, "/v1/sweep", sweepRequest{Name: "gc",
		Specs: []exp.SimSpec{tinySpec("gc")}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	waitJobDone(t, a, sw.ID)
	_, res1 := a.get(t, "/v1/jobs/"+sw.ID+"/results")
	a.shutdown(t)

	// GC the entry out from under the job.
	prep, err := a.runner.PrepareSpec(tinySpec("gc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(stA.EntryPath(prep.Key())); err != nil {
		t.Fatal(err)
	}

	b := startDurable(t, opts, Config{Workers: 2}, openStoreDir(t, storeDir))
	st := waitJobDone(t, b, sw.ID)
	if st.Done != 1 || st.Errors != 0 {
		t.Fatalf("adopted status %+v, want 1/1 clean", st)
	}
	if n := b.runner.SimsRun(); n != 1 {
		t.Errorf("GC'd entry recomputed %d times, want 1", n)
	}
	_, res2 := b.get(t, "/v1/jobs/"+sw.ID+"/results")
	if !bytes.Equal(res1, res2) {
		t.Errorf("recomputed results diverged:\n was %s\n now %s", res1, res2)
	}
	b.shutdown(t)

	// Second restart: the recomputed entry is in the store, nothing reruns.
	c := startDurable(t, opts, Config{Workers: 2}, openStoreDir(t, storeDir))
	defer c.shutdown(t)
	st = waitJobDone(t, c, sw.ID)
	if st.Done != 1 || st.Errors != 0 || st.CacheHits != 1 {
		t.Fatalf("second adoption status %+v, want 1/1 clean with 1 cache hit", st)
	}
	if n := c.runner.SimsRun(); n != 0 {
		t.Errorf("second adoption ran %d simulations, want 0", n)
	}
	checkFullStream(t, readSSE(t, c, sw.ID), 1)
	_, res3 := c.get(t, "/v1/jobs/"+sw.ID+"/results")
	var first, recovered struct {
		Results []taskOutcome `json:"results"`
	}
	json.Unmarshal(res1, &first)
	json.Unmarshal(res3, &recovered)
	if len(first.Results) != 1 || len(recovered.Results) != 1 {
		t.Fatalf("results: %d and %d outcomes, want 1 each", len(first.Results), len(recovered.Results))
	}
	was, now := first.Results[0], recovered.Results[0]
	if now.Key != was.Key || !bytes.Equal(now.Result, was.Result) {
		t.Error("recovered outcome's key or result differs from the first run")
	}
	if now.Source != "store" || !now.Cached {
		t.Errorf("recovered outcome source %q cached %v, want store hit", now.Source, now.Cached)
	}
}

// TestAdoptRetriesFailedTask: a failure is not a result. A task that
// failed before the restart (here a watchdog abort) is not replayed as
// failed; the successor runs it again and the job finishes clean.
func TestAdoptRetriesFailedTask(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	spec := tinySpec("retry")
	spec.Measure = 2_000_000 // long enough for the watchdog to fire

	opts := tinyOpts()
	opts.SimTimeout = time.Nanosecond
	a := startDurable(t, opts, Config{Workers: 1}, openStoreDir(t, storeDir))
	resp, body := a.post(t, "/v1/sweep", sweepRequest{Name: "retry", Specs: []exp.SimSpec{spec}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	if st := waitJobDone(t, a, sw.ID); st.Errors != 1 {
		t.Fatalf("status under a 1ns budget %+v, want 1 error", st)
	}
	a.shutdown(t)

	b := startDurable(t, tinyOpts(), Config{Workers: 1}, openStoreDir(t, storeDir))
	defer b.shutdown(t)
	if st := waitJobDone(t, b, sw.ID); st.Errors != 0 || st.Computed != 1 {
		t.Errorf("adopted status %+v, want 0 errors and 1 computed", st)
	}
}

// TestAdoptionRacesIdenticalPost: a client that lost its worker typically
// resubmits; if the resubmission hits the successor while adoption is
// re-running the same specs, the runner's singleflight must collapse the
// two into one simulation.
func TestAdoptionRacesIdenticalPost(t *testing.T) {
	opts := tinyOpts()
	storeDir := filepath.Join(t.TempDir(), "store")

	slow := func(name string) exp.SimSpec {
		s := tinySpec(name)
		s.Measure = 400_000 // long enough that the crash lands mid-job
		return s
	}
	specs := []exp.SimSpec{slow("race-a"), slow("race-b")}

	a := startDurable(t, opts, Config{Workers: 1}, openStoreDir(t, storeDir))
	resp, body := a.post(t, "/v1/sweep", sweepRequest{Name: "race", Specs: specs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	a.crash() // worker finishes its current task; the rest is abandoned

	// Successor adopts (re-enqueueing the unfinished specs) while an
	// identical sweep arrives over HTTP.
	b := startDurable(t, opts, Config{Workers: 2}, openStoreDir(t, storeDir))
	defer b.shutdown(t)
	resp, body = b.post(t, "/v1/sweep", sweepRequest{Name: "race", Specs: specs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var sw2 sweepResponse
	json.Unmarshal(body, &sw2)
	if sw2.ID == sw.ID {
		t.Fatal("resubmission reused the adopted job ID")
	}

	st1 := waitJobDone(t, b, sw.ID)
	st2 := waitJobDone(t, b, sw2.ID)
	if st1.Errors != 0 || st2.Errors != 0 {
		t.Fatalf("errors: adopted %d, resubmitted %d", st1.Errors, st2.Errors)
	}
	// Across adoption re-runs and the resubmission, each unfinished spec
	// simulated at most once on the successor.
	if n := b.runner.SimsRun(); n > int64(len(specs)) {
		t.Errorf("successor ran %d simulations for %d unique specs", n, len(specs))
	}
	_, r1 := b.get(t, "/v1/jobs/"+sw.ID+"/results")
	_, r2 := b.get(t, "/v1/jobs/"+sw2.ID+"/results")
	var d1, d2 struct {
		Results []taskOutcome `json:"results"`
	}
	json.Unmarshal(r1, &d1)
	json.Unmarshal(r2, &d2)
	if len(d1.Results) != 2 || len(d2.Results) != 2 {
		t.Fatalf("results: %d and %d outcomes", len(d1.Results), len(d2.Results))
	}
	for i := range d1.Results {
		if !bytes.Equal(d1.Results[i].Result, d2.Results[i].Result) {
			t.Errorf("task %d: adopted and resubmitted results differ", i)
		}
	}
}

// TestDiskFailDegraded: with every store write failing (chaos diskfail),
// sweeps still complete from memory, and the worker reports itself
// degraded on /healthz and /v1/stats — alive, correct, not durable.
func TestDiskFailDegraded(t *testing.T) {
	chaos, err := ParseChaos("diskfail=1.0,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{FailWrites: chaos.FailWrites()})
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, tinyOpts(), Config{Workers: 2}, st)

	if resp, body := s.get(t, "/healthz"); resp.StatusCode != http.StatusOK ||
		strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("pre-fault healthz: %d %q", resp.StatusCode, body)
	}

	resp, body := s.post(t, "/v1/sweep", sweepRequest{Name: "diskfail",
		Specs: []exp.SimSpec{tinySpec("df-a"), tinySpec("df-b")}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	if st2 := waitJobDone(t, s, sw.ID); st2.Errors != 0 {
		t.Fatalf("sweep under diskfail finished with %d errors", st2.Errors)
	}
	if n := st.Len(); n != 0 {
		t.Errorf("store holds %d entries though every write failed", n)
	}

	resp, body = s.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("degraded healthz = %d, want 200 (deprioritize, don't kill)", resp.StatusCode)
	}
	if !strings.HasPrefix(string(body), "degraded: ") {
		t.Errorf("degraded healthz body %q", body)
	}
	_, body = s.get(t, "/v1/stats")
	var stats struct {
		Degraded       bool   `json:"degraded"`
		DegradedReason string `json:"degraded_reason"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded || stats.DegradedReason == "" {
		t.Errorf("stats degraded=%v reason=%q, want true with a reason", stats.Degraded, stats.DegradedReason)
	}

	// Still serving: the same specs come back from memory, no recompute.
	before := s.runner.SimsRun()
	resp, _ = s.post(t, "/v1/sim", tinySpec("df-a"))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("degraded sim: %d, want 200", resp.StatusCode)
	}
	if n := s.runner.SimsRun() - before; n != 0 {
		t.Errorf("degraded re-serve recomputed %d times", n)
	}
}

// TestSimTimeout504: a watchdog abort surfaces as 504 (retryable
// elsewhere), not a generic 500.
func TestSimTimeout504(t *testing.T) {
	opts := tinyOpts()
	opts.SimTimeout = time.Nanosecond
	s := newService(t, opts, Config{Workers: 1}, nil)
	spec := tinySpec("budget")
	spec.Measure = 2_000_000
	resp, body := s.post(t, "/v1/sim", spec)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out sim: %d %s, want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "wall-clock") {
		t.Errorf("504 body does not name the budget: %s", body)
	}
}

// TestParseChaosDiskFail: diskfail parses, bounds-checks, and is excluded
// from the request-fault probability budget.
func TestParseChaosDiskFail(t *testing.T) {
	c, err := ParseChaos("diskfail=0.25,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if c.DiskFailProb != 0.25 {
		t.Errorf("DiskFailProb = %g", c.DiskFailProb)
	}
	if c.FailWrites() == nil {
		t.Error("FailWrites() nil with diskfail set")
	}
	if (&Chaos{}).FailWrites() != nil || (*Chaos)(nil).FailWrites() != nil {
		t.Error("FailWrites() non-nil without diskfail")
	}
	if _, err := ParseChaos("diskfail=1.5"); err == nil {
		t.Error("diskfail=1.5 accepted")
	}
	// Disk faults are a different layer: they don't consume the
	// fail/drop/stall budget.
	if _, err := ParseChaos("fail=0.5,drop=0.5,diskfail=1.0"); err != nil {
		t.Errorf("diskfail counted against the request-fault budget: %v", err)
	}

	// A hook with p=1 fails every write; p=0 via nil receiver is off.
	fw := (&Chaos{DiskFailProb: 1}).FailWrites()
	for i := 0; i < 3; i++ {
		if fw() == nil {
			t.Fatal("diskfail=1.0 let a write through")
		}
	}
}

// TestDrainWaitsForWindowEndCheckpoints: a cold sim's window-end snapshot
// is written after its reply, so Drain must wait for it. With the interval
// equal to Measure every cold sim writes two snapshots, the warmup
// boundary and the window end; once Drain returns all of them are store
// entries.
func TestDrainWaitsForWindowEndCheckpoints(t *testing.T) {
	opts := tinyOpts()
	opts.Checkpoints = true
	opts.CheckpointEvery = opts.Measure
	s := newService(t, opts, Config{Workers: 2}, nil)

	mechs := []string{"REFab", "REFpb", "DARP", "SARPpb", "DSARP"}
	status := make([]int, len(mechs))
	var wg sync.WaitGroup
	for i, mech := range mechs {
		spec := tinySpec("drain-ckpt")
		spec.Mechanism = mech
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(s.ts.URL+"/v1/sim", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			resp.Body.Close()
			status[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	for i, code := range status {
		if code != http.StatusOK {
			t.Fatalf("%s sim: status %d", mechs[i], code)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	written := s.runner.CheckpointsWritten()
	if want := int64(2 * len(mechs)); written != want {
		t.Errorf("CheckpointsWritten = %d, want %d", written, want)
	}
	if n := s.store.Stats().SnapshotEntries; int64(n) != written {
		t.Errorf("store holds %d snapshot entries after Drain, runner wrote %d", n, written)
	}
}

// slowStore opens a store whose every write first sleeps for d, so that a
// result's write lands well after the reply that carries the result.
func slowStore(t *testing.T, d time.Duration) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{FailWrites: func() error {
		time.Sleep(d)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJobDoneNeverAheadOfStore: a job counts a task done only once its
// result is durable, so at every moment the done count it reports is at
// most the number of its results in the store — what a restart after a
// kill -9 finds. The store is slow, so the results trail the computations.
func TestJobDoneNeverAheadOfStore(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, slowStore(t, 20*time.Millisecond))
	var specs []exp.SimSpec
	var keys []store.Key
	for _, mech := range []string{"REFab", "REFpb", "DARP", "SARPpb", "DSARP", "NoREF"} {
		spec := tinySpec("done-durable")
		spec.Mechanism = mech
		prepared, err := s.runner.PrepareSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
		keys = append(keys, prepared.Key())
	}
	resp, body := s.post(t, "/v1/sweep", sweepRequest{Name: "done-durable", Specs: specs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	deadline := time.Now().Add(60 * time.Second)
	for polls := 0; ; polls++ {
		_, body := s.get(t, "/v1/jobs/"+sw.ID)
		var st jobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status decode: %v (%s)", err, body)
		}
		// Read after the status, so a result counted in done is already
		// in the store by the time it is looked for.
		stored := 0
		for _, k := range keys {
			if s.store.Contains(k) {
				stored++
			}
		}
		if st.Done > stored {
			t.Fatalf("poll %d: job reports %d done, store holds %d of its results", polls, st.Done, stored)
		}
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSimReplyThenDrainPersists: a /v1/sim reply may precede its result's
// store write, and Drain waits for that write.
func TestSimReplyThenDrainPersists(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, slowStore(t, 50*time.Millisecond))
	resp, body := s.post(t, "/v1/sim", tinySpec("reply-then-drain"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	var sr simResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	key, err := store.ParseKey(sr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if s.store.Contains(key) {
		t.Log("the result's write landed before the reply was read")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.store.Get(key)
	if !ok {
		t.Fatal("result missing from the store after Drain")
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, sr.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Error("stored result differs from the replied one")
	}
}

// TestDrainWaitsForAbortedRunCheckpoints: a run the watchdog aborts
// returns no write handle, yet the warmup-boundary snapshot it queued
// before the abort is still being written; Drain waits for it, so the
// retry after a restart can resume from it.
func TestDrainWaitsForAbortedRunCheckpoints(t *testing.T) {
	opts := tinyOpts()
	opts.Checkpoints = true
	opts.SimTimeout = time.Nanosecond
	s := newService(t, opts, Config{Workers: 1}, slowStore(t, 50*time.Millisecond))
	spec := tinySpec("aborted-ckpt")
	spec.Measure = 2_000_000 // the warmup (2k cycles) ends before the first watchdog poll
	resp, body := s.post(t, "/v1/sim", spec)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("sim: %d %s, want 504", resp.StatusCode, body)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	prepared, err := s.runner.PrepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !s.store.ContainsKind(prepared.PrefixKey(prepared.Warmup), store.KindSnapshot) {
		t.Error("the aborted run's warmup-boundary snapshot is not in the store after Drain")
	}
}
