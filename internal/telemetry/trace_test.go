package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func fixedNow() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }

// TestTraceRoundTrip records a two-spec run (one clean, one retried),
// then appends a second run to the same file the way a rerun of the same
// command does, and replays it into one report per run, checking chains,
// causes, and terminals.
func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rec, err := NewRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.now = fixedNow
	tr := "abcd1234abcd1234"

	rec.Record(Span{Trace: tr, Kind: SpanRun, Name: "fig7", Schema: "v4", Total: 2})
	rec.Record(Span{Trace: tr, Kind: SpanAttempt, Spec: "k1", Label: "fig7/darp", Attempt: 1, Worker: "http://w1", Status: "ok", Millis: 12})
	rec.Record(Span{Trace: tr, Kind: SpanResult, Spec: "k1", Label: "fig7/darp", Worker: "http://w1", Source: "computed"})
	rec.Record(Span{Trace: tr, Kind: SpanAttempt, Spec: "k2", Label: "fig7/base", Attempt: 1, Worker: "http://w1", Status: "conn", Millis: 3})
	rec.Record(Span{Trace: tr, Kind: SpanAttempt, Spec: "k2", Label: "fig7/base", Attempt: 2, Worker: "http://w2", Status: "429", Millis: 1})
	rec.Record(Span{Trace: tr, Kind: SpanAttempt, Spec: "k2", Label: "fig7/base", Attempt: 3, Worker: "http://w2", Status: "ok", Millis: 20})
	rec.Record(Span{Trace: tr, Kind: SpanResult, Spec: "k2", Label: "fig7/base", Worker: "http://w2", Source: "store"})
	// A span from an unrelated trace must be ignored by the report.
	rec.Record(Span{Trace: "ffff0000ffff0000", Kind: SpanAttempt, Spec: "zz", Attempt: 1, Status: "ok"})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// The rerun reopens the file and appends its own run: the same specs,
	// now served from the orchestrator's local store.
	rec2, err := NewRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := "5678efab5678efab"
	rec2.Record(Span{Trace: tr2, Kind: SpanRun, Name: "fig7", Schema: "v4", Total: 2})
	rec2.Record(Span{Trace: tr2, Kind: SpanResult, Spec: "k1", Label: "fig7/darp", Source: "local-store"})
	rec2.Record(Span{Trace: tr2, Kind: SpanResult, Spec: "k2", Label: "fig7/base", Source: "local-store"})
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}

	spans, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 11 {
		t.Fatalf("replayed %d spans, want 11", len(spans))
	}
	if spans[1].Time == "" {
		t.Error("recorder did not stamp Time")
	}

	reports, err := BuildReports(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want one per run (2)", len(reports))
	}
	rep := reports[0]
	if rep.Trace != tr || rep.Name != "fig7" || rep.Total != 2 {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(rep.Chains))
	}
	k2 := rep.Chains[1]
	if k2.Spec != "k2" || len(k2.Attempts) != 3 {
		t.Fatalf("k2 chain = %+v", k2)
	}
	if k2.Terminal == nil || k2.Terminal.Source != "store" {
		t.Errorf("k2 terminal = %+v", k2.Terminal)
	}
	causes := rep.RetryCauses()
	if causes["conn"] != 1 || causes["429"] != 1 || len(causes) != 2 {
		t.Errorf("causes = %v", causes)
	}

	out := rep.String()
	for _, want := range []string{
		"trace abcd1234abcd1234: run fig7 (2 specs)",
		"fig7/base",
		"#1 w1 conn -> #2 w2 429 -> #3 w2 ok 20ms  = store",
		"retries by cause: 429=1 conn=1",
		"terminal sources: computed=1 store=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	rerun := reports[1]
	if rerun.Trace != tr2 || len(rerun.Chains) != 2 {
		t.Fatalf("second run = %+v", rerun)
	}
	for _, c := range rerun.Chains {
		if c.Terminal == nil || c.Terminal.Source != "local-store" || len(c.Attempts) != 0 {
			t.Errorf("second run chain %s = %+v, want one local-store terminal", c.Spec, c)
		}
	}
	out = rerun.String()
	for _, want := range []string{
		"trace 5678efab5678efab: run fig7 (2 specs)",
		"terminal sources: local-store=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("second report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "retries by cause") {
		t.Errorf("second report inherited the first run's retries:\n%s", out)
	}
}

// TestRecorderCloseReportsWriteFailure: spans dropped on a failed write
// surface as Close's error.
func TestRecorderCloseReportsWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	rec, err := NewRecorder("/dev/full")
	if err != nil {
		t.Fatal(err)
	}
	rec.Record(Span{Trace: "t", Kind: SpanRun, Name: "full"})
	if err := rec.Close(); err == nil {
		t.Error("Close returned nil after a failed write")
	}
}

// TestTraceTornFinalLine verifies that a process dying mid-append (a
// torn, unterminated final line) does not poison replay: the torn line
// is dropped, the rest of the trace reads fine.
func TestTraceTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rec, err := NewRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := "0011223344556677"
	rec.Record(Span{Trace: tr, Kind: SpanRun, Name: "t", Total: 1})
	rec.Record(Span{Trace: tr, Kind: SpanAttempt, Spec: "k", Attempt: 1, Status: "ok"})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trace":"0011","kind":"res`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spans, err := ReadTrace(path)
	if err != nil {
		t.Fatalf("torn final line should be tolerated: %v", err)
	}
	if len(spans) != 2 {
		t.Fatalf("replayed %d spans, want 2 (torn line dropped)", len(spans))
	}
}

// TestTraceMissingFile: replaying a path that was never written is an
// empty trace, not an error.
func TestTraceMissingFile(t *testing.T) {
	spans, err := ReadTrace(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if len(spans) != 0 {
		t.Fatalf("got %d spans from a missing file", len(spans))
	}
}

// TestBuildReportErrors covers the malformed-trace cases.
func TestBuildReportErrors(t *testing.T) {
	if _, err := BuildReports(nil); err == nil {
		t.Error("empty trace: no error")
	}
	if _, err := BuildReports([]Span{{Kind: SpanAttempt}}); err == nil {
		t.Error("missing run header: no error")
	}
	double := []Span{
		{Trace: "t", Kind: SpanRun},
		{Trace: "t", Kind: SpanResult, Spec: "k", Source: "computed"},
		{Trace: "t", Kind: SpanResult, Spec: "k", Source: "store"},
	}
	if _, err := BuildReports(double); err == nil {
		t.Error("double terminal: no error")
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || a == b {
		t.Errorf("trace IDs: %q, %q", a, b)
	}
}

// FuzzReadTrace feeds arbitrary bytes through the -trace-report path:
// replay, report building and rendering may reject a file but must never
// panic on one.
func FuzzReadTrace(f *testing.F) {
	twoRuns := `{"trace":"aa","kind":"run","name":"fig7","total":1}
{"trace":"aa","kind":"attempt","spec":"k1","attempt":1,"worker":"http://w1","status":"conn","ms":3}
{"trace":"aa","kind":"attempt","spec":"k1","attempt":2,"worker":"http://w2","status":"ok","ms":9}
{"trace":"aa","kind":"result","spec":"k1","worker":"http://w2","source":"computed"}
{"trace":"bb","kind":"run","name":"fig7","total":1}
{"trace":"bb","kind":"result","spec":"k1","source":"local-store"}
`
	f.Add([]byte(twoRuns))
	f.Add([]byte(twoRuns + `{"trace":"bb","kind":"res`))
	f.Add([]byte("\x00\xffnot json\n{]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spans, err := ReadTrace(path)
		if err != nil {
			return
		}
		reports, err := BuildReports(spans)
		if err != nil {
			return
		}
		for _, r := range reports {
			_ = r.String()
		}
	})
}
