package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"

	"dsarp/internal/exp"
	"dsarp/internal/store"
)

// jobEvent is one SSE frame: a completed task, or the job's completion.
type jobEvent struct {
	Type   string `json:"type"` // "task" | "done"
	Index  int    `json:"index,omitempty"`
	Label  string `json:"label,omitempty"`
	Key    string `json:"key,omitempty"`
	Source string `json:"source,omitempty"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
}

const (
	eventTask = "task"
	eventDone = "done"
)

// taskOutcome is one slot of a job's results.
type taskOutcome struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Source string          `json:"source"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// jobStatus is the GET /v1/jobs/{id} body.
type jobStatus struct {
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	State      string `json:"state"` // "running" | "done"
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Computed   int    `json:"computed"`
	CacheHits  int    `json:"cache_hits"`
	Errors     int    `json:"errors"`
	// TableURL is set once an experiment job has finished and its table is
	// assembled (or its assembly error recorded).
	TableURL string `json:"table_url,omitempty"`
}

// job tracks one sweep: per-task outcomes, counters, and SSE subscribers.
// An experiment job additionally carries an assemble hook that renders the
// experiment's table from the outcomes the moment the last task lands.
type job struct {
	id    string
	name  string
	total int

	// experiment/assemble are set for POST /v1/experiments/{name} jobs:
	// assemble runs exactly once, under mu, before the done event is
	// published — so a client that sees "done" can immediately fetch the
	// table.
	experiment string
	assemble   func([]taskOutcome) (string, error)

	mu       sync.Mutex
	done     int
	computed int
	cached   int
	errs     int
	outcomes []taskOutcome
	table    string
	tableErr string
	events   []jobEvent      // completion-ordered history, replayed to late subscribers
	subs     []chan jobEvent // live subscribers; buffered so publish never blocks
}

// newJob builds a job over specs. A zero-spec experiment (fig5 is
// analytic) is born done, table included.
func newJob(id, name string, specs []exp.SimSpec, experiment string, assemble func([]taskOutcome) (string, error)) *job {
	j := &job{
		id:         id,
		name:       name,
		total:      len(specs),
		experiment: experiment,
		assemble:   assemble,
		outcomes:   make([]taskOutcome, len(specs)),
	}
	if j.total == 0 {
		j.mu.Lock()
		j.finishLocked()
		j.mu.Unlock()
	}
	return j
}

// complete records a finished task — its key, and its result's
// EncodeResult bytes or its error — and publishes its event. Called by
// workers; at most once per index.
func (j *job) complete(index int, spec exp.SimSpec, key store.Key, data []byte, src exp.RunSource, err error) {
	out := taskOutcome{Index: index, Key: key.String()}
	if err != nil {
		out.Error = err.Error()
	} else {
		out.Source = src.String()
		out.Cached = src.Cached()
		out.Result = data
	}
	j.record(spec, out)
}

// record stores one task's outcome and publishes its event, then the done
// event if it was the last task.
func (j *job) record(spec exp.SimSpec, out taskOutcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.outcomes[out.Index] = out
	j.done++
	switch {
	case out.Error != "":
		j.errs++
	case out.Cached:
		j.cached++
	default:
		j.computed++
	}
	ev := jobEvent{
		Type: eventTask, Index: out.Index, Label: spec.Name + " " + spec.Mechanism,
		Key: out.Key, Source: out.Source, Cached: out.Cached, Error: out.Error,
		Done: j.done, Total: j.total,
	}
	j.publishLocked(ev)
	if j.done == j.total {
		j.finishLocked()
	}
}

// finishLocked assembles an experiment job's table (if any) and publishes
// the terminal event.
func (j *job) finishLocked() {
	if j.assemble != nil {
		table, err := j.assemble(j.outcomes)
		if err != nil {
			j.tableErr = err.Error()
		} else {
			j.table = table
		}
		j.assemble = nil
	}
	j.publishLocked(jobEvent{Type: eventDone, Done: j.done, Total: j.total})
}

// tableState returns the experiment-table view of the job: whether it is
// an experiment job at all, whether the table is ready, and the table or
// its assembly error.
func (j *job) tableState() (isExperiment, ready bool, table, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.experiment != "", j.done == j.total, j.table, j.tableErr
}

// publishLocked appends to the event history and fans out to subscribers.
// Subscriber channels are sized for the job's full event count, so sends
// never block a worker.
func (j *job) publishLocked(ev jobEvent) {
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		ch <- ev
	}
}

// subscribe returns the event history so far and a channel carrying every
// subsequent event, with no gap or overlap between the two.
func (j *job) subscribe() ([]jobEvent, chan jobEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := make([]jobEvent, len(j.events))
	copy(replay, j.events)
	ch := make(chan jobEvent, j.total+1)
	j.subs = append(j.subs, ch)
	return replay, ch
}

func (j *job) unsubscribe(ch chan jobEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID: j.id, Name: j.name, Experiment: j.experiment, State: "running",
		Done: j.done, Total: j.total,
		Computed: j.computed, CacheHits: j.cached, Errors: j.errs,
	}
	if j.done == j.total {
		st.State = "done"
		if j.experiment != "" {
			st.TableURL = "/v1/jobs/" + j.id + "/table"
		}
	}
	return st
}

func (j *job) results() (jobStatus, []taskOutcome) {
	st := j.status()
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]taskOutcome, len(j.outcomes))
	copy(out, j.outcomes)
	return st, out
}

// jobRegistry maps job ids to jobs, keeping at most cap of them: a
// long-running daemon would otherwise retain every sweep's results and
// event history forever (they are already durable in the store). When
// full, the oldest finished job is evicted — or the oldest outright if
// every job is somehow still running; its workers keep completing into
// the evicted struct harmlessly, only status/SSE lookups start to 404.
type jobRegistry struct {
	mu    *sync.Mutex
	jobs  map[string]*job
	order []*job // creation order
	cap   int
	dir   string // where job headers live (durable.go); "" when jobs die with the process
}

// defaultJobCap bounds retained jobs; generous next to MaxQueue since a
// finished job holds only outcomes, not queue slots.
const defaultJobCap = 512

func newJobRegistry() jobRegistry {
	return jobRegistry{mu: &sync.Mutex{}, jobs: map[string]*job{}, cap: defaultJobCap}
}

// create registers a job under a fresh ID. An experiment job names its
// experiment, and assemble renders its table from the outcomes when the
// last spec lands; a sweep passes "" and nil.
func (r *jobRegistry) create(name string, specs []exp.SimSpec, experiment string, assemble func([]taskOutcome) (string, error)) *job {
	var b [8]byte
	rand.Read(b[:])
	j := newJob(hex.EncodeToString(b[:]), name, specs, experiment, assemble)
	r.register(j)
	return j
}

func (r *jobRegistry) register(j *job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs[j.id] = j
	r.order = append(r.order, j)
	if len(r.order) > r.cap {
		victim := 0
		for i, old := range r.order[:len(r.order)-1] {
			if old.status().State == "done" {
				victim = i
				break
			}
		}
		evicted := r.order[victim]
		delete(r.jobs, evicted.id)
		r.order = append(r.order[:victim], r.order[victim+1:]...)
		if r.dir != "" {
			// An evicted job is no longer resolvable by ID: adopting its
			// header after a restart would resurrect a job nobody can have
			// a handle to.
			os.Remove(r.headerPath(evicted.id))
		}
	}
}

func (r jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

func (r jobRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// stateCounts tallies retained jobs by state for the metrics layer.
func (r jobRegistry) stateCounts() (running, done int) {
	r.mu.Lock()
	jobs := make([]*job, 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	// Job locks are taken outside the registry lock: status() is cheap,
	// but complete() holds a job lock while it assembles a finished
	// experiment's table.
	for _, j := range jobs {
		if j.status().State == "done" {
			done++
		} else {
			running++
		}
	}
	return running, done
}
