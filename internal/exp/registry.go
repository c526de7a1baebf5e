package exp

import (
	"fmt"
	"sync/atomic"

	"dsarp/internal/core"
	"dsarp/internal/metrics"
	"dsarp/internal/sim"
	"dsarp/internal/store"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// Results maps a spec's content address to its simulation result: the pure
// input of every Assemble function. The map can be filled from any source —
// a local runner, the on-disk store, or job outcomes fetched from a fleet
// of dsarpd workers — and the assembled table is byte-identical regardless.
type Results map[store.Key]sim.Result

// Add records one result under its spec's key.
func (res Results) Add(s SimSpec, r sim.Result) { res[s.Key()] = r }

// find is the lookup behind Assemble. It panics with a descriptive message
// when a result is missing; Experiment.Assemble converts the panic into an
// error, so an incomplete result set reads as "missing result for ...",
// not as a silently wrong table.
func (res Results) find(s SimSpec, _ bool) sim.Result {
	if r, ok := res[s.Key()]; ok {
		return r
	}
	panic(fmt.Sprintf("exp: missing result for %s (key %s)", s.label(), s.Key()))
}

// lookup is how an experiment's assembly reads simulation results: it
// returns the result of spec s, where alone marks s as an alone run behind
// WS normalization (Runner.AloneSpec). Assemble backs it with a Results
// map (Results.find); Specs backs it with a recorder that notes every spec
// asked for and answers with a stand-in (recorder.find). An experiment is
// thus one function, and its spec list is exactly what its assembly reads.
//
// That holds under one rule: an assembly chooses its lookups from the
// runner's options and workloads only, never from a result's values. The
// recorder's stand-ins carry no data — only a zero IPC per core, so WS
// arithmetic runs — and a lookup that depended on one would enumerate a
// different spec than Assemble reads.
type lookup func(s SimSpec, alone bool) sim.Result

// get looks up the result of one of the runner's canonical runs.
func (res lookup) get(r *Runner, wl workload.Workload, k core.Kind, d timing.Density, variant string) sim.Result {
	return res(r.specFor(wl, k, d, variant), false)
}

// aloneIPCs collects the alone-run IPC of every slot of a workload.
func (res lookup) aloneIPCs(r *Runner, wl workload.Workload) []float64 {
	out := make([]float64, len(wl.Benchmarks))
	for i, b := range wl.Benchmarks {
		out[i] = res(r.AloneSpec(b), true).IPC[0]
	}
	return out
}

// ws is the weighted speedup of a mechanism on a workload, normalized by
// the workload's alone runs.
func (res lookup) ws(r *Runner, wl workload.Workload, k core.Kind, d timing.Density, variant string) float64 {
	return metrics.WeightedSpeedup(res.get(r, wl, k, d, variant).IPC, res.aloneIPCs(r, wl))
}

// wsSeries computes the weighted speedup of every workload in ws.
func (res lookup) wsSeries(r *Runner, ws []workload.Workload, k core.Kind, d timing.Density, variant string) []float64 {
	out := make([]float64, len(ws))
	for i := range ws {
		out[i] = res.ws(r, ws[i], k, d, variant)
	}
	return out
}

// recorder is the lookup behind Specs. It keeps each spec once, by key:
// runs in the order the assembly first reads them, alone runs apart so
// that they list last.
type recorder struct {
	runs, alones []SimSpec
	seen         map[store.Key]bool
}

func (rec *recorder) find(s SimSpec, alone bool) sim.Result {
	if k := s.Key(); !rec.seen[k] {
		rec.seen[k] = true
		if alone {
			rec.alones = append(rec.alones, s)
		} else {
			rec.runs = append(rec.runs, s)
		}
	}
	return sim.Result{IPC: make([]float64, len(s.Benchmarks))}
}

// Experiment is one published artifact of the reproduction — a table or
// figure — in declarative form: a single pure function that assembles the
// rendered result from simulation outcomes read through a lookup. Run
// against a recorder it enumerates the simulations it needs (Specs); run
// against a Results map it renders (Assemble). Between the two sits any
// execution strategy a caller likes: the runner's local worker pool
// (Runner.RunExperiment), the HTTP sweep machinery
// (POST /v1/experiments/{name}), or a client splitting the specs across a
// fleet of dsarpd workers and assembling locally.
type Experiment struct {
	// Name is the registry key ("table2", "fig13", ...), matching the
	// historical cmd/experiments -run spellings.
	Name string
	// Title is a one-line human description.
	Title string

	assemble func(*Runner, lookup) fmt.Stringer
}

// Specs enumerates every simulation the experiment needs, deduplicated, in
// a deterministic order: the assembly's runs in the order it first reads
// them, then the alone runs. It runs the assembly against a recorder (see
// lookup), so the list holds exactly the specs Assemble reads. The runner
// supplies only scale and workload context (options, mixes); no
// simulation runs.
func (e Experiment) Specs(r *Runner) []SimSpec {
	rec := recorder{seen: map[store.Key]bool{}}
	e.assemble(r, rec.find)
	return append(rec.runs, rec.alones...)
}

// Assemble renders the experiment from a result map holding (at least)
// every spec the experiment enumerates. It runs no simulations; a missing
// or undecodable result surfaces as an error. The returned value's
// concrete type is the experiment's result type (Table2Result, Fig12Set,
// ...); callers that need its fields type-assert it.
func (e Experiment) Assemble(r *Runner, res Results) (out fmt.Stringer, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("exp: assemble %s: %v", e.Name, v)
		}
	}()
	return e.assemble(r, res.find), nil
}

// registry holds every experiment in the canonical presentation order of
// cmd/experiments (the paper's own ordering of tables and figures).
var registry = []Experiment{
	{Name: "fig5", Title: "Fig. 5 — tRFCab scaling trend", assemble: stringer(assembleFig5)},
	{Name: "fig6", Title: "Fig. 6 — REFab performance loss by intensity", assemble: stringer(assembleFig6)},
	{Name: "fig7", Title: "Fig. 7 — REFab vs REFpb performance loss", assemble: stringer(assembleFig7)},
	{Name: "fig12", Title: "Fig. 12 — sorted per-workload improvement curves", assemble: stringer(assembleFig12Set)},
	{Name: "table2", Title: "Table 2 — max & gmean WS improvement", assemble: stringer(assembleTable2)},
	{Name: "fig13", Title: "Fig. 13 — average WS improvement, all mechanisms", assemble: stringer(assembleFig13)},
	{Name: "breakdown", Title: "§6.1.2 — DARP component breakdown", assemble: stringer(assembleBreakdown)},
	{Name: "fig14", Title: "Fig. 14 — DRAM energy per access", assemble: stringer(assembleFig14)},
	{Name: "fig15", Title: "Fig. 15 — DSARP improvement by memory intensity", assemble: stringer(assembleFig15)},
	{Name: "table3", Title: "Table 3 — core-count sensitivity", assemble: stringer(assembleTable3)},
	{Name: "table4", Title: "Table 4 — tFAW/tRRD sensitivity", assemble: stringer(assembleTable4)},
	{Name: "table5", Title: "Table 5 — subarrays-per-bank sensitivity", assemble: stringer(assembleTable5)},
	{Name: "table6", Title: "Table 6 — DSARP at 64 ms retention", assemble: stringer(assembleTable6)},
	{Name: "fig16", Title: "Fig. 16 — DDR4 FGR and adaptive refresh", assemble: stringer(assembleNormWS(fig16Heading, Fig16Mechanisms))},
	{Name: "ablations", Title: "DESIGN.md §4 design-choice ablations", assemble: stringer(assembleAblations)},
	{Name: "pausing", Title: "Extension — refresh pausing comparison", assemble: stringer(assembleNormWS(pausingHeading, PausingMechanisms))},
}

// stringer adapts a typed assemble function to the registry's fmt.Stringer
// form; the concrete result type survives behind the interface.
func stringer[T fmt.Stringer](assemble func(*Runner, lookup) T) func(*Runner, lookup) fmt.Stringer {
	return func(r *Runner, res lookup) fmt.Stringer { return assemble(r, res) }
}

// Experiments returns every registered experiment in canonical order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// WarmCount reports how many of the specs already have an entry in the
// runner's store (0 without one) — the shared definition of "warm" behind
// cmd/experiments -list and GET /v1/experiments. Existence probes only; no
// payloads are read and LRU state is untouched. The dominant cost is Key()
// — a SHA-256 over each spec's full benchmark profiles — so the probes fan
// out over the runner's worker pool, and enumerating a whole registry of
// experiments against a large store stays interactive. Like every forEach
// caller, it skips the remaining probes after Interrupt.
func (r *Runner) WarmCount(specs []SimSpec) int {
	st := r.opts.Store
	if st == nil {
		return 0
	}
	var warm atomic.Int64
	r.forEach(len(specs), func(i int) {
		if st.Contains(specs[i].Key()) {
			warm.Add(1)
		}
	})
	return int(warm.Load())
}

// LookupExperiment finds a registry entry by name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiment executes a registry entry end to end on this runner:
// enumerate, run every spec through the cached/stored path, assemble.
// After Interrupt it returns (nil, nil) — the result set has holes, so no
// table is assembled (callers already treat interrupted output as void).
func (r *Runner) RunExperiment(name string) (fmt.Stringer, error) {
	e, ok := LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q", name)
	}
	res, ok := r.RunAll(e.Specs(r))
	if !ok {
		return nil, nil
	}
	return e.Assemble(r, res)
}
