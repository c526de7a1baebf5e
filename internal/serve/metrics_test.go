package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dsarp/internal/store"
	"dsarp/internal/telemetry"
)

// metricValue extracts one series value line from an exposition body.
func metricValue(t *testing.T, body, series string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	t.Fatalf("series %q not in exposition:\n%s", series, body)
	return ""
}

// TestMetricsEndpoint drives a sim through the service and checks the
// exposition moves the way the scrape-time CI assertions rely on:
// computed total advances on a cold run, holds on a warm one, and the
// latency histogram books each serving under its source.
func TestMetricsEndpoint(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, nil)

	resp, body := s.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, series := range []string{
		"dsarp_sims_computed_total 0",
		"dsarp_store_hits_total 0",
		`dsarp_refused_total{reason="queue_full"} 0`,
		`dsarp_refused_total{reason="draining"} 0`,
		`dsarp_sim_seconds_count{source="computed"} 0`,
		"dsarp_queue_capacity 256",
		"dsarp_draining 0",
		"dsarp_degraded 0",
		"dsarp_sse_subscribers 0",
		"dsarp_store_entries 0",
		"dsarp_checkpoints_rejected_total 0",
	} {
		if !strings.Contains(string(body), series+"\n") {
			t.Errorf("cold exposition missing %q", series)
		}
	}

	if resp, _ := s.post(t, "/v1/sim", tinySpec("metrics")); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d", resp.StatusCode)
	}
	_, body = s.get(t, "/metrics")
	if got := metricValue(t, string(body), "dsarp_sims_computed_total"); got != "1" {
		t.Errorf("computed after cold run = %s, want 1", got)
	}
	if got := metricValue(t, string(body), `dsarp_sim_seconds_count{source="computed"}`); got != "1" {
		t.Errorf("computed histogram count = %s, want 1", got)
	}

	// Warm rerun: computed holds, some cache tier books the serving.
	if resp, _ := s.post(t, "/v1/sim", tinySpec("metrics")); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sim: %d", resp.StatusCode)
	}
	_, body = s.get(t, "/metrics")
	if got := metricValue(t, string(body), "dsarp_sims_computed_total"); got != "1" {
		t.Errorf("computed after warm run = %s, want still 1", got)
	}
	var cached int
	for _, src := range []string{"store", "memory", "peer"} {
		v := metricValue(t, string(body), `dsarp_sim_seconds_count{source="`+src+`"}`)
		if v != "0" {
			cached++
		}
	}
	if cached != 1 {
		t.Errorf("warm serving booked under %d cache sources, want exactly 1:\n%s", cached, body)
	}
}

// TestMetricsRefusedCounter fills the admission budget and checks a 429
// lands in dsarp_refused_total{reason="queue_full"}.
func TestMetricsRefusedCounter(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 1, MaxQueue: 2}, nil)
	if err := s.reserve(2); err != nil {
		t.Fatal(err)
	}
	defer func() { s.release(2); s.tasks.Add(-2) }()

	resp, _ := s.post(t, "/v1/sim", tinySpec("refused"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d", resp.StatusCode)
	}
	_, body := s.get(t, "/metrics")
	if got := metricValue(t, string(body), `dsarp_refused_total{reason="queue_full"}`); got != "1" {
		t.Errorf("refused counter = %s, want 1", got)
	}
}

// TestServeTraceSpan posts a sim carrying a trace header and checks the
// server's flight recorder holds a serve span attributed to that trace.
func TestServeTraceSpan(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "serve-trace.jsonl")
	rec, err := telemetry.NewRecorder(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, tinyOpts(), Config{Workers: 2, Trace: rec}, nil)

	payload, _ := json.Marshal(tinySpec("traced"))
	req, _ := http.NewRequest("POST", s.ts.URL+"/v1/sim", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceHeader, "feedbeeffeedbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d", resp.StatusCode)
	}
	// An untraced request must not add a span.
	if resp, _ := s.post(t, "/v1/sim", tinySpec("untraced")); resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced sim: %d", resp.StatusCode)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	spans, err := telemetry.ReadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1: %+v", len(spans), spans)
	}
	sp := spans[0]
	if sp.Trace != "feedbeeffeedbeef" || sp.Kind != telemetry.SpanServe ||
		sp.Status != "ok" || sp.Source != "computed" || sp.Spec == "" {
		t.Errorf("serve span = %+v", sp)
	}
}

// lockedBuffer is a log sink safe to read while the server writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCheckpointRejectedCountedAndLogged: an extension whose window-end
// snapshot is corrupt falls back to the warmup boundary, and the skipped
// snapshot shows on /metrics and as a warn-level log record.
func TestCheckpointRejectedCountedAndLogged(t *testing.T) {
	opts := tinyOpts()
	opts.Checkpoints = true
	opts.CheckpointEvery = opts.Measure
	var logs lockedBuffer
	log := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s := newService(t, opts, Config{Workers: 2, Log: log}, nil)

	spec, err := s.runner.PrepareSpec(tinySpec("rejected"))
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := s.post(t, "/v1/sim", spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	s.runner.WaitWrites()
	pkey := spec.PrefixKey(spec.Warmup + spec.Measure)
	data, ok := s.store.GetKind(pkey, store.KindSnapshot)
	if !ok {
		t.Fatal("window-end snapshot missing")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x01
	if err := s.store.PutKind(pkey, store.KindSnapshot, bad); err != nil {
		t.Fatal(err)
	}

	ext := spec
	ext.Measure += 4_000
	resp, body := s.post(t, "/v1/sim", ext)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extended sim: %d %s", resp.StatusCode, body)
	}
	var sr simResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ResumedFrom != spec.Warmup {
		t.Errorf("resumed_from = %d, want the warmup boundary %d", sr.ResumedFrom, spec.Warmup)
	}
	_, body = s.get(t, "/metrics")
	if got := metricValue(t, string(body), "dsarp_checkpoints_rejected_total"); got != "1" {
		t.Errorf("rejected counter = %s, want 1", got)
	}
	if out := logs.String(); !strings.Contains(out, "level=WARN msg=\"checkpoint rejected\"") {
		t.Errorf("no warn record for the rejected snapshot in:\n%s", out)
	}
}
