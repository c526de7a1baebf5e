package fleet

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/serve"
	"dsarp/internal/telemetry"
)

// TestTraceOfRecordUnderChaos is the observability acceptance scenario: a
// three-worker fig7 run under fault injection, flight-recorded. The trace
// must reconstruct every spec's full attempt chain — each chain ends in
// exactly one terminal span whose source is a real serving tier, every
// retry is attributed to a cause — while the assembled table stays
// byte-identical to the single-node golden.
func TestTraceOfRecordUnderChaos(t *testing.T) {
	opts := tinyOpts()
	golden, err := exp.NewRunner(opts).RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}

	workers := startPeerWorkers(t, opts, 3, 2, func(i int) *serve.Chaos {
		return &serve.Chaos{FailProb: 0.15, DropProb: 0.10, Seed: int64(1 + i)}
	})

	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	rec, err := telemetry.NewRecorder(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(workers[0].url(), workers[1].url(), workers[2].url())
	cfg.RequestTimeout = 30 * time.Second
	cfg.Trace = rec
	o := mustOrch(t, cfg)
	r := exp.NewRunner(opts)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := o.RunExperiment(ctx, r, "fig7")
	if err != nil {
		t.Fatalf("RunExperiment under fault injection: %v", err)
	}
	if got.String() != golden.String() {
		t.Errorf("table diverged from single-node golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	spans, err := telemetry.ReadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := telemetry.BuildReports(spans)
	if err != nil {
		t.Fatalf("BuildReports: %v", err)
	}
	if len(reports) != 1 {
		t.Fatalf("trace holds %d runs, want 1", len(reports))
	}
	report := reports[0]
	fig7, ok := exp.LookupExperiment("fig7")
	if !ok {
		t.Fatal("fig7 not in experiment registry")
	}
	specs := fig7.Specs(r)
	if report.Name != "fig7" || report.Total != len(specs) {
		t.Errorf("run header = %q/%d, want fig7/%d", report.Name, report.Total, len(specs))
	}
	if len(report.Chains) != len(specs) {
		t.Fatalf("trace holds %d spec chains, want %d", len(report.Chains), len(specs))
	}
	seen := map[string]bool{}
	validSource := map[string]bool{"computed": true, "store": true, "memory": true, "peer": true}
	for _, c := range report.Chains {
		if seen[c.Spec] {
			t.Errorf("spec %s appears in two chains", c.Spec)
		}
		seen[c.Spec] = true
		if c.Terminal == nil {
			t.Errorf("spec %s (%s) has no terminal span", c.Spec, c.Label)
			continue
		}
		if c.Terminal.Status == "failed" || !validSource[c.Terminal.Source] {
			t.Errorf("spec %s terminal = status %q source %q, want ok with a serving tier",
				c.Spec, c.Terminal.Status, c.Terminal.Source)
		}
		if len(c.Attempts) == 0 {
			t.Errorf("spec %s has a terminal but no attempts", c.Spec)
		}
		last := c.Attempts[len(c.Attempts)-1]
		if last.Status != "ok" {
			t.Errorf("spec %s final attempt status = %q, want ok", c.Spec, last.Status)
		}
		for i, a := range c.Attempts {
			if a.Attempt != i+1 {
				t.Errorf("spec %s attempt %d numbered %d", c.Spec, i+1, a.Attempt)
			}
			if i < len(c.Attempts)-1 && a.Status == "ok" {
				t.Errorf("spec %s attempt %d is ok but was retried", c.Spec, i+1)
			}
		}
	}
	for _, s := range specs {
		if !seen[s.Key().String()] {
			t.Errorf("spec %s %s missing from trace", s.Name, s.Mechanism)
		}
	}
	// Every recorded retry must carry a recognized cause, and the trace's
	// per-cause tally must agree with the orchestrator's own counters.
	causes := report.RetryCauses()
	validCause := map[string]bool{
		"conn": true, "timeout": true, "429": true, "503": true,
		"5xx": true, "http": true, "malformed": true,
	}
	var traced int64
	for cause, n := range causes {
		if !validCause[cause] {
			t.Errorf("retry cause %q is not a recognized classification", cause)
		}
		traced += int64(n)
	}
	st := o.Stats()
	if traced != st.Retries {
		t.Errorf("trace records %d retries, orchestrator counted %d", traced, st.Retries)
	}
	for cause, n := range st.RetryCauses {
		if int64(causes[cause]) != n {
			t.Errorf("cause %q: trace=%d stats=%d", cause, causes[cause], n)
		}
	}
	if st.Failed != 0 {
		t.Errorf("lost %d specs to permanent failure; want 0", st.Failed)
	}
}
