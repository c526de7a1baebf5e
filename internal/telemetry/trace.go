package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dsarp/internal/journal"
)

// The trace-of-record is a JSONL flight recorder for orchestrated runs:
// per run, the fleet mints a trace ID, stamps every dispatch with it (the
// X-Dsarp-Trace header carries it to the workers, whose own recorders —
// dsarpd -trace — attribute their half of the work to the same ID), and
// appends a run header plus one Span per state transition. Replaying the
// file reconstructs, for every run in it, every spec's full attempt
// chain: which worker, which attempt, what failed and why, and how the
// spec finally terminated (computed on a worker, served warm from a
// store, fetched from a peer). The file mechanics are internal/journal's:
// fsync per line, a torn final line tolerated on replay, mid-file
// corruption refused.

// TraceHeader is the HTTP header propagating a run's trace ID from the
// fleet orchestrator to the workers it dispatches to.
const TraceHeader = "X-Dsarp-Trace"

// NewTraceID mints a fresh random trace ID (16 hex chars).
func NewTraceID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// Span kinds, in the order a spec's chain emits them.
const (
	// SpanRun is a run's header, recorded before any of its other spans.
	SpanRun = "run"
	// SpanAttempt is one dispatch attempt of one spec to one worker,
	// terminal or not: Status "ok" or a retry cause, with wall time.
	SpanAttempt = "attempt"
	// SpanResult is a spec's terminal record: Source says how it was
	// satisfied (computed|store|memory|peer|local-store), or Status
	// "failed" with the permanent error.
	SpanResult = "result"
	// SpanServe is a worker-side completion record (dsarpd -trace):
	// the server's own view of one task, attributed to the trace ID the
	// request carried.
	SpanServe = "serve"
)

// Span is one flight-recorder line. Fields are omitted when empty, so a
// record carries only what its kind defines.
type Span struct {
	Trace string `json:"trace"`
	Kind  string `json:"kind"`
	// Time is the wall-clock stamp (RFC3339Nano) the span was recorded.
	Time string `json:"time,omitempty"`
	// Spec is the spec's content-address (store key); Label its human
	// name (workload, mechanism, density, variant).
	Spec  string `json:"spec,omitempty"`
	Label string `json:"label,omitempty"`
	// Attempt numbers a spec's dispatches from 1.
	Attempt int `json:"attempt,omitempty"`
	// Worker is the dsarpd the attempt went to (fleet spans) or the
	// serving worker's own identity (serve spans).
	Worker string `json:"worker,omitempty"`
	// Status is "ok", "failed", or a transient retry cause
	// (429|503|5xx|timeout|conn|malformed).
	Status string `json:"status,omitempty"`
	// Source is where the terminal result came from:
	// computed|store|memory|peer (worker-reported) or local-store (the
	// orchestrator's own store satisfied it without dispatching).
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
	// ResumedFrom is the checkpoint cycle a computed simulation was
	// restored from (serve spans and terminal result records); 0/absent
	// means the run started cold at cycle 0.
	ResumedFrom int64 `json:"resumed_from,omitempty"`
	// Millis is the span's wall time in milliseconds.
	Millis float64 `json:"ms,omitempty"`
	// Run-header fields.
	Name   string `json:"name,omitempty"`
	Schema string `json:"schema,omitempty"`
	Total  int    `json:"total,omitempty"`
}

// Recorder appends spans to a JSONL flight recorder. Safe for concurrent
// use; a write failure disables the recorder rather than failing the run
// — the trace is observability, not state — and Close reports it.
type Recorder struct {
	mu  sync.Mutex
	f   *journal.File
	err error
	now func() time.Time
}

// NewRecorder opens (creating or appending) the trace file at path.
func NewRecorder(path string) (*Recorder, error) {
	f, err := journal.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &Recorder{f: f, now: time.Now}, nil
}

// Record stamps and appends one span. Best-effort: the first write
// failure sticks (Close returns it) and later records are dropped.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if s.Time == "" {
		s.Time = r.now().UTC().Format(time.RFC3339Nano)
	}
	if err := r.f.Append(s); err != nil {
		r.err = err
	}
}

// Close closes the underlying file and returns the first write failure,
// or else the close error.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.f.Close()
	if r.err != nil {
		return r.err
	}
	return err
}

// ReadTrace replays the trace file at path into spans, in record order.
// A missing file is an empty trace; a torn final line (the process died
// mid-append) is dropped; mid-file corruption is an error.
func ReadTrace(path string) ([]Span, error) {
	lines, err := journal.Read(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	spans := make([]Span, 0, len(lines))
	for i, raw := range lines {
		var s Span
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("telemetry: trace %s: line %d: %w", path, i+1, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// AttemptChain is one spec's reconstructed history: every attempt in
// order, plus the terminal result record (nil if the trace ended before
// the spec terminated — e.g. the run was interrupted).
type AttemptChain struct {
	Spec     string
	Label    string
	Attempts []Span
	Terminal *Span
}

// TraceReport is the replayed view of one run's flight recorder.
type TraceReport struct {
	Trace  string
	Name   string
	Total  int
	Chains []*AttemptChain // order of first appearance
}

// BuildReports folds a span stream into per-spec attempt chains, one
// report per run header in file order: a recorder appended to by several
// runs (a rerun of an interrupted command) holds several. Each report is
// built from the spans carrying its header's trace ID; spans of any other
// trace are ignored.
func BuildReports(spans []Span) ([]*TraceReport, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("telemetry: empty trace")
	}
	if spans[0].Kind != SpanRun {
		return nil, fmt.Errorf("telemetry: trace does not start with a run header (kind %q)", spans[0].Kind)
	}
	type chainKey struct {
		rep  *TraceReport
		spec string
	}
	var reps []*TraceReport
	byTrace := map[string]*TraceReport{}
	byKey := map[chainKey]*AttemptChain{}
	chainFor := func(rep *TraceReport, s Span) *AttemptChain {
		k := chainKey{rep, s.Spec}
		c, ok := byKey[k]
		if !ok {
			c = &AttemptChain{Spec: s.Spec}
			byKey[k] = c
			rep.Chains = append(rep.Chains, c)
		}
		if c.Label == "" {
			c.Label = s.Label
		}
		return c
	}
	for _, s := range spans {
		if s.Kind == SpanRun {
			rep := &TraceReport{Trace: s.Trace, Name: s.Name, Total: s.Total}
			reps = append(reps, rep)
			byTrace[s.Trace] = rep
			continue
		}
		rep := byTrace[s.Trace]
		if rep == nil || s.Spec == "" {
			continue
		}
		switch s.Kind {
		case SpanAttempt:
			c := chainFor(rep, s)
			c.Attempts = append(c.Attempts, s)
		case SpanResult:
			c := chainFor(rep, s)
			if c.Terminal != nil {
				return nil, fmt.Errorf("telemetry: spec %s has two terminal records", s.Spec)
			}
			term := s
			c.Terminal = &term
		}
	}
	return reps, nil
}

// RetryCauses tallies the non-ok attempt statuses across every chain.
func (r *TraceReport) RetryCauses() map[string]int {
	causes := map[string]int{}
	for _, c := range r.Chains {
		for _, a := range c.Attempts {
			if a.Status != "ok" && a.Status != "" {
				causes[a.Status]++
			}
		}
	}
	return causes
}

// String renders the per-spec attempt-chain summary -trace-report prints:
// one line per spec (label, attempt chain, terminal source), then an
// aggregate footer (specs, attempts, retries by cause, terminal sources).
func (r *TraceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: run %s (%d specs)\n", r.Trace, r.Name, r.Total)
	sources := map[string]int{}
	attempts, unterminated := 0, 0
	for _, c := range r.Chains {
		label := c.Label
		if label == "" {
			label = c.Spec
		}
		fmt.Fprintf(&b, "  %-44s", label)
		attempts += len(c.Attempts)
		var parts []string
		for _, a := range c.Attempts {
			if a.Status == "ok" {
				parts = append(parts, fmt.Sprintf("#%d %s ok %.0fms", a.Attempt, shortWorker(a.Worker), a.Millis))
			} else {
				parts = append(parts, fmt.Sprintf("#%d %s %s", a.Attempt, shortWorker(a.Worker), a.Status))
			}
		}
		b.WriteString(strings.Join(parts, " -> "))
		switch {
		case c.Terminal == nil:
			unterminated++
			b.WriteString("  [no terminal record]")
		case c.Terminal.Status == "failed":
			sources["failed"]++
			fmt.Fprintf(&b, "  = FAILED (%s)", c.Terminal.Error)
		default:
			sources[c.Terminal.Source]++
			fmt.Fprintf(&b, "  = %s", c.Terminal.Source)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "specs: %d traced, %d attempts", len(r.Chains), attempts)
	if unterminated > 0 {
		fmt.Fprintf(&b, ", %d without a terminal record (interrupted?)", unterminated)
	}
	b.WriteByte('\n')
	if causes := r.RetryCauses(); len(causes) > 0 {
		fmt.Fprintf(&b, "retries by cause: %s\n", renderTally(causes))
	}
	fmt.Fprintf(&b, "terminal sources: %s\n", renderTally(sources))
	return b.String()
}

// renderTally formats a map as "k=v k=v", keys sorted.
func renderTally(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

// shortWorker strips the scheme from a worker URL for compact chains.
func shortWorker(u string) string {
	u = strings.TrimPrefix(u, "http://")
	u = strings.TrimPrefix(u, "https://")
	if u == "" {
		return "-"
	}
	return u
}
