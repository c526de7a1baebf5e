package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/store"
	"dsarp/internal/timing"
)

// tinyOpts is a fast single-simulation scale for handler tests.
func tinyOpts() exp.Options {
	return exp.Options{
		PerCategory: 1,
		Sensitivity: 1,
		Cores:       2,
		Warmup:      2_000,
		Measure:     8_000,
		Seed:        42,
		Densities:   []timing.Density{timing.Gb8},
	}
}

// localTable renders a registry experiment on a fresh local runner: the
// reference an HTTP-assembled table must match byte for byte.
func localTable(t *testing.T, opts exp.Options, name string) string {
	t.Helper()
	out, err := exp.NewRunner(opts).RunExperiment(name)
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

type testService struct {
	*Server
	runner *exp.Runner
	store  *store.Store
	ts     *httptest.Server
}

func newService(t *testing.T, opts exp.Options, cfg Config, st *store.Store) *testService {
	t.Helper()
	if st == nil {
		var err error
		st, err = store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	opts.Store = st
	r := exp.NewRunner(opts)
	cfg.Runner = r
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return &testService{Server: srv, runner: r, store: st, ts: ts}
}

// post sends body, as it is if it is a []byte and else as its JSON
// encoding.
func (s *testService) post(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, raw := body.([]byte)
	if !raw {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(s.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func (s *testService) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
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

func TestSimComputeThenCached(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, nil)
	resp1, body1 := s.post(t, "/v1/sim", tinySpec("smoke"))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	var r1, r2 simResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Source != "computed" {
		t.Errorf("first response: source=%s cached=%v, want fresh compute", r1.Source, r1.Cached)
	}
	resp2, body2 := s.post(t, "/v1/sim", tinySpec("smoke"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d", resp2.StatusCode)
	}
	json.Unmarshal(body2, &r2)
	if !r2.Cached {
		t.Error("second identical request not served from cache")
	}
	if r1.Key != r2.Key || !bytes.Equal(r1.Result, r2.Result) {
		t.Error("cached response differs from computed response")
	}
	if n := s.runner.SimsRun(); n != 1 {
		t.Errorf("SimsRun = %d, want 1", n)
	}
}

// TestServedFromStoreAfterRestart: a new server process (fresh runner,
// same store directory) serves the result from disk, byte-identically.
func TestServedFromStoreAfterRestart(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newService(t, tinyOpts(), Config{}, st)
	_, body1 := s1.post(t, "/v1/sim", tinySpec("restart"))
	s1.ts.Close()
	// A graceful stop: the reply may precede the result's store write,
	// and Drain waits for it.
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newService(t, tinyOpts(), Config{}, st)
	resp, body2 := s2.post(t, "/v1/sim", tinySpec("restart"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST after restart: %d", resp.StatusCode)
	}
	var r1, r2 simResponse
	json.Unmarshal(body1, &r1)
	json.Unmarshal(body2, &r2)
	if r2.Source != "store" {
		t.Errorf("source = %s, want store", r2.Source)
	}
	if !bytes.Equal(r1.Result, r2.Result) {
		t.Error("store-served result differs from original compute")
	}
	if n := s2.runner.SimsRun(); n != 0 {
		t.Errorf("restarted server ran %d simulations, want 0", n)
	}
}

// TestDedupInflight: concurrent identical requests share one simulation.
func TestDedupInflight(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 4}, nil)
	const n = 4
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := s.post(t, "/v1/sim", tinySpec("dedup"))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if n := s.runner.SimsRun(); n != 1 {
		t.Errorf("%d concurrent identical requests ran %d simulations, want 1", n, s.runner.SimsRun())
	}
	var first simResponse
	json.Unmarshal(bodies[0], &first)
	for i := 1; i < n; i++ {
		var r simResponse
		json.Unmarshal(bodies[i], &r)
		if !bytes.Equal(first.Result, r.Result) {
			t.Errorf("request %d result differs", i)
		}
	}
}

func TestSweepBackpressure(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 1, MaxQueue: 3}, nil)

	// A sweep that could never fit is permanently rejected (413), not told
	// to retry.
	never := []exp.SimSpec{tinySpec("a"), tinySpec("b"), tinySpec("c"), tinySpec("d")}
	resp, body := s.post(t, "/v1/sweep", sweepRequest{Specs: never})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("impossible sweep: %d %s, want 413", resp.StatusCode, body)
	}

	// Occupy the whole queue with slow distinct simulations (one worker,
	// three tasks), then show a fitting sweep bounces with a transient 429.
	slow := make([]exp.SimSpec, 3)
	for i := range slow {
		slow[i] = tinySpec(fmt.Sprintf("slow-%d", i))
		// Distinct seeds (no dedup) on a saturating benchmark with a long
		// window: each task holds its queue slot for a while.
		slow[i].BenchmarkNames = []string{"stream.triad"}
		slow[i].Seed = int64(100 + i)
		slow[i].Measure = 2_000_000
	}
	resp, body = s.post(t, "/v1/sweep", sweepRequest{Specs: slow})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupying sweep: %d %s", resp.StatusCode, body)
	}
	var occupying sweepResponse
	json.Unmarshal(body, &occupying)

	resp, body = s.post(t, "/v1/sweep", sweepRequest{Specs: []exp.SimSpec{tinySpec("bounce")}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sweep into a full queue: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// And /v1/sim is backpressured the same way.
	if resp, _ := s.post(t, "/v1/sim", tinySpec("bounce")); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("sim into a full queue: %d, want 429", resp.StatusCode)
	}

	// Slots are released as tasks finish: after the job drains, the same
	// submission is accepted.
	waitJobDone(t, s, occupying.ID)
	resp, _ = s.post(t, "/v1/sweep", sweepRequest{Specs: []exp.SimSpec{tinySpec("bounce")}})
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-drain sweep: %d, want 202 (slots not released?)", resp.StatusCode)
	}
}

// TestJobRegistryEviction: the registry caps retained jobs, preferring to
// evict finished ones.
func TestJobRegistryEviction(t *testing.T) {
	r := newJobRegistry()
	r.cap = 2
	a := r.create("a", []exp.SimSpec{{}}, "", nil)
	a.complete(0, exp.SimSpec{}, store.Key{}, nil, exp.SourceMemory, nil) // done
	b := r.create("b", []exp.SimSpec{{}}, "", nil)                        // running
	c := r.create("c", []exp.SimSpec{{}}, "", nil)                        // evicts a (done), not b
	if _, ok := r.get(a.id); ok {
		t.Error("finished job not evicted at cap")
	}
	for _, j := range []*job{b, c} {
		if _, ok := r.get(j.id); !ok {
			t.Errorf("job %s evicted while a finished one existed", j.name)
		}
	}
	d := r.create("d", []exp.SimSpec{{}}, "", nil) // all running: evicts oldest (b)
	if _, ok := r.get(b.id); ok {
		t.Error("oldest job survived a full-of-running-jobs registry")
	}
	if r.count() != 2 {
		t.Errorf("registry holds %d jobs, cap 2", r.count())
	}
	_ = d
}

func waitJobDone(t *testing.T, s *testService, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, body := s.get(t, "/v1/jobs/"+id)
		var st jobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status decode: %v (%s)", err, body)
		}
		if st.State == "done" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return jobStatus{}
}

// readSSE collects the event stream of a job until its done event.
func readSSE(t *testing.T, s *testService, id string) []jobEvent {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []jobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev jobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
			if ev.Type == eventDone {
				return events
			}
		}
	}
	t.Fatalf("stream ended without done event (%d events, err %v)", len(events), sc.Err())
	return nil
}

// TestSSEOrdering pins the progress stream contract: one task event per
// spec with strictly increasing done counts, a final done event, and a
// full replay for subscribers that arrive after completion.
func TestSSEOrdering(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, nil)
	specs := []exp.SimSpec{tinySpec("sse-a"), tinySpec("sse-b"), tinySpec("sse-c")}
	resp, body := s.post(t, "/v1/sweep", sweepRequest{Name: "sse", Specs: specs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)

	check := func(events []jobEvent, when string) {
		t.Helper()
		if len(events) != len(specs)+1 {
			t.Fatalf("%s: %d events, want %d tasks + done", when, len(events), len(specs))
		}
		seen := map[int]bool{}
		for i, ev := range events[:len(specs)] {
			if ev.Type != eventTask {
				t.Errorf("%s: event %d type %q", when, i, ev.Type)
			}
			if ev.Done != i+1 || ev.Total != len(specs) {
				t.Errorf("%s: event %d progress %d/%d, want %d/%d", when, i, ev.Done, ev.Total, i+1, len(specs))
			}
			if ev.Error != "" {
				t.Errorf("%s: task %d failed: %s", when, ev.Index, ev.Error)
			}
			seen[ev.Index] = true
		}
		for i := range specs {
			if !seen[i] {
				t.Errorf("%s: no event for task %d", when, i)
			}
		}
		last := events[len(specs)]
		if last.Type != eventDone || last.Done != len(specs) {
			t.Errorf("%s: terminal event %+v", when, last)
		}
	}
	check(readSSE(t, s, sw.ID), "live")
	check(readSSE(t, s, sw.ID), "replay") // job already done: pure history
}

// TestStoreCorruptionRecomputes: a bit-flipped store entry must not crash
// or mis-serve — the service recomputes, reports "computed", and heals the
// entry on disk.
func TestStoreCorruptionRecomputes(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newService(t, tinyOpts(), Config{}, st)
	_, body1 := s1.post(t, "/v1/sim", tinySpec("corrupt"))
	var r1 simResponse
	json.Unmarshal(body1, &r1)
	s1.ts.Close()
	s1.runner.WaitWrites() // the reply may precede the result's store write

	key, err := store.ParseKey(r1.Key)
	if err != nil {
		t.Fatal(err)
	}
	path := st.EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := newService(t, tinyOpts(), Config{}, st)
	resp, body2 := s2.post(t, "/v1/sim", tinySpec("corrupt"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST over corrupt store: %d %s", resp.StatusCode, body2)
	}
	var r2 simResponse
	json.Unmarshal(body2, &r2)
	if r2.Source != "computed" {
		t.Errorf("source = %s, want computed (corrupt entry must miss)", r2.Source)
	}
	if !bytes.Equal(r1.Result, r2.Result) {
		t.Error("recomputed result differs from the original")
	}
	s2.runner.WaitWrites()
	// Healed: a third server now reads it from disk.
	s3 := newService(t, tinyOpts(), Config{}, st)
	_, body3 := s3.post(t, "/v1/sim", tinySpec("corrupt"))
	var r3 simResponse
	json.Unmarshal(body3, &r3)
	if r3.Source != "store" {
		t.Errorf("after heal: source = %s, want store", r3.Source)
	}
}

func TestValidationAndRouting(t *testing.T) {
	s := newService(t, tinyOpts(), Config{}, nil)
	bad := tinySpec("bad")
	bad.Mechanism = "MAGIC"
	if resp, _ := s.post(t, "/v1/sim", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid mechanism: %d, want 400", resp.StatusCode)
	}
	if resp, _ := s.post(t, "/v1/sweep", sweepRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep: %d, want 400", resp.StatusCode)
	}
	if resp, _ := s.get(t, "/v1/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := s.get(t, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	if resp, _ := s.get(t, "/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Errorf("stats: %d", resp.StatusCode)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := newService(t, tinyOpts(), Config{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := s.post(t, "/v1/sim", tinySpec("late"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining: %d, want 503", resp.StatusCode)
	}
}

// TestTable2OverHTTPWarmsLocalRunner is the PR's acceptance golden: the
// full Table 2 task set submitted through the HTTP sweep path lands in the
// store; a local runner over that store then reproduces Table 2 byte for
// byte against a direct compute — with zero simulations, which is what
// makes the warm pass an order of magnitude faster end to end.
func TestTable2OverHTTPWarmsLocalRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation golden run")
	}
	opts := exp.Options{
		PerCategory: 1,
		Sensitivity: 1,
		Cores:       2,
		Warmup:      5_000,
		Measure:     20_000,
		Seed:        42,
		Densities:   []timing.Density{timing.Gb8, timing.Gb32},
	}
	coldStart := time.Now()
	want := localTable(t, opts, "table2")
	coldElapsed := time.Since(coldStart)

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, opts, Config{Workers: 4, MaxQueue: 512}, st)
	table2, _ := exp.LookupExperiment("table2")
	specs := table2.Specs(s.runner)
	resp, body := s.post(t, "/v1/sweep", sweepRequest{Name: "table2", Specs: specs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	st2 := waitJobDone(t, s, sw.ID)
	if st2.Errors != 0 {
		t.Fatalf("sweep finished with %d errors", st2.Errors)
	}

	warmStart := time.Now()
	warm := exp.NewRunner(func() exp.Options { o := opts; o.Store = s.store; return o }())
	out, err := warm.RunExperiment("table2")
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	warmElapsed := time.Since(warmStart)

	if got != want {
		t.Errorf("HTTP-warmed Table2 diverged from direct compute:\n got:\n%s\nwant:\n%s", got, want)
	}
	if n := warm.SimsRun(); n != 0 {
		t.Errorf("warm runner executed %d simulations, want 0", n)
	}
	t.Logf("cold %v, warm %v (%.1fx)", coldElapsed, warmElapsed,
		float64(coldElapsed)/float64(warmElapsed))
	if warmElapsed > coldElapsed {
		t.Errorf("warm pass (%v) slower than cold compute (%v)", warmElapsed, coldElapsed)
	}
}

// TestExperimentEndpoints covers the registry surface end to end: list
// with warm counts, run an experiment through the job machinery, and fetch
// a rendered table that is byte-identical to the same experiment computed
// locally.
func TestExperimentEndpoints(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 4, MaxQueue: 512}, nil)

	type listing struct {
		Schema      string `json:"schema"`
		Experiments []struct {
			Name      string `json:"name"`
			Title     string `json:"title"`
			SpecCount int    `json:"spec_count"`
			WarmCount *int   `json:"warm_count"`
			RunURL    string `json:"run_url"`
		} `json:"experiments"`
	}
	resp, body := s.get(t, "/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	var l listing
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	if l.Schema != exp.SchemaVersion {
		t.Errorf("schema = %q", l.Schema)
	}
	if len(l.Experiments) != len(exp.Experiments()) {
		t.Fatalf("listing has %d experiments, registry %d", len(l.Experiments), len(exp.Experiments()))
	}
	byName := map[string]int{}
	for i, e := range l.Experiments {
		byName[e.Name] = i
		if e.WarmCount == nil {
			t.Errorf("%s: no warm count despite a configured store", e.Name)
		} else if *e.WarmCount != 0 {
			t.Errorf("%s: cold store reports %d warm specs", e.Name, *e.WarmCount)
		}
	}

	// Run fig7 over HTTP and compare its table against a local compute.
	resp, body = s.post(t, "/v1/experiments/fig7", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run fig7: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	if sw.TableURL == "" {
		t.Fatal("experiment job without table_url")
	}
	st := waitJobDone(t, s, sw.ID)
	if st.Errors != 0 {
		t.Fatalf("fig7 finished with %d errors", st.Errors)
	}
	if st.Experiment != "fig7" || st.TableURL != sw.TableURL {
		t.Errorf("done status lacks experiment metadata: %+v", st)
	}
	resp, body = s.get(t, sw.TableURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("table Content-Type = %q", ct)
	}
	want := localTable(t, tinyOpts(), "fig7")
	if string(body) != want {
		t.Errorf("HTTP-assembled fig7 diverged from local compute:\n got:\n%s\nwant:\n%s", body, want)
	}

	// The listing now reports fig7 fully warm.
	_, body = s.get(t, "/v1/experiments")
	var l2 listing
	json.Unmarshal(body, &l2)
	e := l2.Experiments[byName["fig7"]]
	if e.WarmCount == nil || *e.WarmCount != e.SpecCount {
		t.Errorf("after the run, fig7 warm=%v of %d specs", e.WarmCount, e.SpecCount)
	}

	// A second run is served without a single fresh simulation and renders
	// the identical table.
	before := s.runner.SimsRun()
	resp, body = s.post(t, "/v1/experiments/fig7", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rerun fig7: %d %s", resp.StatusCode, body)
	}
	var sw2 sweepResponse
	json.Unmarshal(body, &sw2)
	waitJobDone(t, s, sw2.ID)
	if n := s.runner.SimsRun() - before; n != 0 {
		t.Errorf("warm rerun executed %d simulations, want 0", n)
	}
	_, body = s.get(t, sw2.TableURL)
	if string(body) != want {
		t.Error("warm rerun's table diverged")
	}

	// Unknown names 404; table on a plain sweep job 404s too.
	if resp, _ := s.post(t, "/v1/experiments/fig99", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: %d, want 404", resp.StatusCode)
	}
	resp, body = s.post(t, "/v1/sweep", sweepRequest{Specs: []exp.SimSpec{tinySpec("plain")}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	var plain sweepResponse
	json.Unmarshal(body, &plain)
	waitJobDone(t, s, plain.ID)
	if resp, _ := s.get(t, "/v1/jobs/"+plain.ID+"/table"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("table of a plain sweep: %d, want 404", resp.StatusCode)
	}
}

// TestExperimentListingRepeats: the runner memoizes each experiment's spec
// list and keys, so a second listing must answer from the memo with the
// same bytes as the first, and both must count what a fresh runner
// enumerates.
func TestExperimentListingRepeats(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 1, MaxQueue: 4}, nil)
	_, first := s.get(t, "/v1/experiments")
	_, second := s.get(t, "/v1/experiments")
	if !bytes.Equal(first, second) {
		t.Fatalf("second listing differs from the first:\n first: %s\nsecond: %s", first, second)
	}
	var l struct {
		Experiments []struct {
			Name      string `json:"name"`
			SpecCount int    `json:"spec_count"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(second, &l); err != nil {
		t.Fatal(err)
	}
	fresh := exp.NewRunner(tinyOpts())
	for i, e := range exp.Experiments() {
		if got, want := l.Experiments[i].SpecCount, len(e.Specs(fresh)); got != want {
			t.Errorf("%s: listed %d specs, a fresh runner enumerates %d", e.Name, got, want)
		}
	}
}

// TestExperimentZeroSpecs: the analytic fig5 is a zero-spec job — born
// done, table immediately available, no queue slots consumed.
func TestExperimentZeroSpecs(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 1, MaxQueue: 4}, nil)
	resp, body := s.post(t, "/v1/experiments/fig5", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fig5: %d %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	json.Unmarshal(body, &sw)
	st := waitJobDone(t, s, sw.ID)
	if st.Total != 0 {
		t.Errorf("fig5 total = %d, want 0", st.Total)
	}
	resp, body = s.get(t, sw.TableURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig5 table: %d %s", resp.StatusCode, body)
	}
	if want := localTable(t, tinyOpts(), "fig5"); string(body) != want {
		t.Error("fig5 table diverged")
	}
	// Its SSE stream is just the done event — and it replays.
	events := readSSE(t, s, sw.ID)
	if len(events) != 1 || events[0].Type != eventDone {
		t.Errorf("fig5 events = %+v, want a single done", events)
	}
}

// TestExperimentTooLargeForQueue: an experiment that cannot fit the queue
// is a permanent 413 pointing at -max-queue, not a retry loop.
func TestExperimentTooLargeForQueue(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 1, MaxQueue: 3}, nil)
	resp, body := s.post(t, "/v1/experiments/fig7", nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized experiment: %d %s, want 413", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "max-queue") {
		t.Errorf("413 body does not mention -max-queue: %s", body)
	}
}
