package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dsarp/internal/exp"
	"dsarp/internal/journal"
	"dsarp/internal/store"
)

// Job durability: a store-backed server writes every job's header — its
// identity and full spec list — to <store>/jobs/<id>.jsonl before the job
// ID is returned, and that one line is the job's whole durable state.
// Results need no second record: the runner writes every successful
// result to the content-addressed store behind the computation, and the
// worker records the task done only once that write has landed, so a
// job's done count never runs ahead of what a restart finds. On
// startup the server adopts every header in the directory: the job comes
// back under the same ID, every spec whose key the store holds is
// restored as a store hit (so GET /v1/jobs/{id}, /results, /table, and
// SSE replay all work across a hard crash), and the rest — never
// finished, failed, or GC'd since — are re-enqueued. Re-running a spec is
// idempotent (results are content-addressed and the runner's singleflight
// dedups against concurrent identical submissions), so the assembled
// table after any number of crashes is byte-identical to an uninterrupted
// run.

// jobHeader is the job file's line: everything needed to rebuild the job
// object and re-enqueue its work. Schema pins the store generation — a
// header from an older schema is dropped at adoption, because the
// generation sweep already reclaimed every store entry its keys address.
// Lines after the header (older servers appended one per completed task)
// are ignored.
type jobHeader struct {
	Type       string        `json:"type"` // "job"
	ID         string        `json:"id"`
	Name       string        `json:"name,omitempty"`
	Experiment string        `json:"experiment,omitempty"`
	Schema     string        `json:"schema"`
	Specs      []exp.SimSpec `json:"specs"`
}

const headerType = "job"

// headerPath is where job id's header lives.
func (r *jobRegistry) headerPath(id string) string {
	return filepath.Join(r.dir, id+".jsonl")
}

// createJob registers a job and, when durability is on, makes its header
// durable before the job ID is ever returned to a client: any ID a client
// observes is re-resolvable after a crash.
func (s *Server) createJob(name string, prepared []exp.Prepared, experiment string, assemble func([]taskOutcome) (string, error)) *job {
	specs := make([]exp.SimSpec, len(prepared))
	for i, p := range prepared {
		specs[i] = p.Spec()
	}
	j := s.jobs.create(name, specs, experiment, assemble)
	if s.jobs.dir == "" {
		return j
	}
	if err := s.jobs.writeHeader(jobHeader{
		Type: headerType, ID: j.id, Name: name, Experiment: experiment,
		Schema: exp.SchemaVersion, Specs: specs,
	}); err != nil {
		// Degraded, not fatal: the job still runs, it just won't survive a
		// crash — the same posture as a disabled store.
		s.noteJournalErr(err)
	}
	return j
}

// writeHeader appends and fsyncs a job's header, creating the job
// directory on first use.
func (r *jobRegistry) writeHeader(h jobHeader) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	jl, err := journal.OpenAppend(r.headerPath(h.ID))
	if err != nil {
		return err
	}
	if err := jl.Append(h); err != nil {
		jl.Close()
		return err
	}
	return jl.Close()
}

// adoptJobs scans the job directory and adopts every job it holds,
// returning the tasks that must be re-enqueued (specs with no result in
// the store). Called once from New, before any request is served.
func (s *Server) adoptJobs() []task {
	if s.jobs.dir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.jobs.dir)
	if err != nil {
		if !os.IsNotExist(err) { // else no job was ever created
			s.log.Warn("cannot read job journals", "dir", s.jobs.dir, "err", err)
		}
		return nil
	}
	var adopted []task
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".jsonl") {
			continue
		}
		adopted = append(adopted, s.adoptJob(filepath.Join(s.jobs.dir, de.Name()))...)
	}
	return adopted
}

// adoptJob rebuilds one job from its header. Outcomes are reconstructed
// by probing the store for each spec's key, in spec order: a hit restores
// the task as a store hit (payload bytes exactly as originally served),
// a miss leaves the spec pending. The SSE event history is rebuilt in the
// same order, so a reconnecting subscriber sees every recovered task once,
// then the live ones. A spec that failed before the crash has no result
// and runs again. Unreadable or foreign files are skipped (and logged),
// never deleted — except headers from an older schema generation, whose
// store entries are already unreachable.
func (s *Server) adoptJob(path string) []task {
	lines, err := journal.Read(path)
	if err != nil {
		s.log.Warn("unreadable job journal; not adopting", "path", path, "err", err)
		return nil
	}
	if len(lines) == 0 {
		return nil // header never landed: the job ID was never returned
	}
	var head jobHeader
	if err := json.Unmarshal(lines[0], &head); err != nil ||
		head.Type != headerType || head.ID == "" {
		s.log.Warn("journal does not start with a job header; not adopting", "path", path)
		return nil
	}
	if head.Schema != exp.SchemaVersion {
		os.Remove(path)
		s.log.Info("dropped job journal from old schema", "job", head.ID, "schema", head.Schema, "current", exp.SchemaVersion)
		return nil
	}

	var assemble func([]taskOutcome) (string, error)
	if head.Experiment != "" {
		if e, ok := exp.LookupExperiment(head.Experiment); ok {
			assemble = s.assembler(e, head.Specs)
		} else {
			assemble = func([]taskOutcome) (string, error) {
				return "", fmt.Errorf("serve: experiment %q no longer registered", head.Experiment)
			}
		}
	}
	j := newJob(head.ID, head.Name, head.Specs, head.Experiment, assemble)

	st := s.runner.Options().Store
	var pending []task
	for i, sp := range head.Specs {
		p, err := s.runner.Prepare(sp)
		if err != nil {
			// A spec this runner no longer accepts fails, as it would in a
			// worker.
			j.complete(i, sp, store.Key{}, nil, exp.SourceComputed, err)
			continue
		}
		payload, ok := st.Get(p.Key())
		if !ok {
			pending = append(pending, task{p: p, job: j, index: i})
			continue
		}
		j.record(sp, taskOutcome{
			Index: i, Key: p.Key().String(),
			Source: exp.SourceStore.String(), Cached: true, Result: payload,
		})
	}
	s.jobs.register(j)

	if len(pending) == 0 {
		s.log.Info("adopted job (complete)", "job", j.id, "total", j.total)
		return nil
	}
	s.log.Info("adopted job", "job", j.id, "done", j.done, "total", j.total, "reenqueued", len(pending))
	return pending
}

// noteJournalErr records the first job header write failure: the server
// keeps completing work but reports itself degraded, because new jobs are
// no longer crash-durable.
func (s *Server) noteJournalErr(err error) {
	s.mu.Lock()
	first := s.journalErr == ""
	if first {
		s.journalErr = err.Error()
	}
	s.mu.Unlock()
	if first {
		s.log.Warn("job journal failure; serving degraded", "err", err)
	}
}

// degradedState reports whether the server should advertise itself
// degraded — the store has flipped read-only, or a job header write
// failed — and why. Degraded is an honest "still correct, no longer
// durable": health checks stay 200 so orchestrators deprioritize rather
// than kill.
func (s *Server) degradedState() (bool, string) {
	if st := s.runner.Options().Store; st != nil {
		if deg, reason := st.Degraded(); deg {
			return true, "store: " + reason
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journalErr != "" {
		return true, "journal: " + s.journalErr
	}
	return false, ""
}
