package exp

import (
	"fmt"
	"runtime"
	"sync"
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

// mustGet returns the result for a spec, panicking with a descriptive
// message when it is missing. Experiment.Assemble converts the panic into
// an error, so an incomplete result set reads as "missing result for ...",
// not as a silently wrong table.
func (res Results) mustGet(s SimSpec) sim.Result {
	if r, ok := res[s.Key()]; ok {
		return r
	}
	panic(fmt.Sprintf("exp: missing result for %s (key %s)", s.label(), s.Key()))
}

// get looks up the result of one of the runner's canonical runs.
func (res Results) get(r *Runner, wl workload.Workload, k core.Kind, d timing.Density, variant string) sim.Result {
	return res.mustGet(r.specFor(wl, k, d, variant))
}

// aloneIPCs collects the alone-run IPC of every slot of a workload.
func (res Results) aloneIPCs(r *Runner, wl workload.Workload) []float64 {
	out := make([]float64, len(wl.Benchmarks))
	for i, b := range wl.Benchmarks {
		out[i] = res.mustGet(r.AloneSpec(b)).IPC[0]
	}
	return out
}

// ws is the weighted speedup of a mechanism on a workload, normalized by
// the workload's alone runs.
func (res Results) ws(r *Runner, wl workload.Workload, k core.Kind, d timing.Density, variant string) float64 {
	return metrics.WeightedSpeedup(res.get(r, wl, k, d, variant).IPC, res.aloneIPCs(r, wl))
}

// wsSeries computes the weighted speedup of every workload in ws.
func (res Results) wsSeries(r *Runner, ws []workload.Workload, k core.Kind, d timing.Density, variant string) []float64 {
	out := make([]float64, len(ws))
	for i := range ws {
		out[i] = res.ws(r, ws[i], k, d, variant)
	}
	return out
}

// Experiment is one published artifact of the reproduction — a table or
// figure — in declarative form: a pure enumeration of the simulations it
// needs and a pure assembly of its rendered result from their outcomes.
// Between the two sits any execution strategy a caller likes: the runner's
// local worker pool (Runner.RunExperiment), the HTTP sweep machinery
// (POST /v1/experiments/{name}), or a client splitting the specs across a
// fleet of dsarpd workers and assembling locally.
type Experiment struct {
	// Name is the registry key ("table2", "fig13", ...), matching the
	// historical cmd/experiments -run spellings.
	Name string
	// Title is a one-line human description.
	Title string

	specs    func(*Runner) []SimSpec
	assemble func(*Runner, Results) fmt.Stringer
}

// Specs enumerates every simulation the experiment needs, deduplicated, in
// a deterministic order. The runner supplies only scale and workload
// context (options, mixes); no simulation runs.
func (e Experiment) Specs(r *Runner) []SimSpec { return e.specs(r) }

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
	return e.assemble(r, res), nil
}

// registry holds every experiment in the canonical presentation order of
// cmd/experiments (the paper's own ordering of tables and figures).
var registry = []Experiment{
	{Name: "fig5", Title: "Fig. 5 — tRFCab scaling trend", specs: fig5Specs, assemble: stringer(assembleFig5)},
	{Name: "fig6", Title: "Fig. 6 — REFab performance loss by intensity", specs: fig6Specs, assemble: stringer(assembleFig6)},
	{Name: "fig7", Title: "Fig. 7 — REFab vs REFpb performance loss", specs: fig7Specs, assemble: stringer(assembleFig7)},
	{Name: "fig12", Title: "Fig. 12 — sorted per-workload improvement curves", specs: fig12AllSpecs, assemble: stringer(assembleFig12Set)},
	{Name: "table2", Title: "Table 2 — max & gmean WS improvement", specs: table2Specs, assemble: stringer(assembleTable2)},
	{Name: "fig13", Title: "Fig. 13 — average WS improvement, all mechanisms", specs: fig13Specs, assemble: stringer(assembleFig13)},
	{Name: "breakdown", Title: "§6.1.2 — DARP component breakdown", specs: breakdownSpecs, assemble: stringer(assembleBreakdown)},
	{Name: "fig14", Title: "Fig. 14 — DRAM energy per access", specs: fig14Specs, assemble: stringer(assembleFig14)},
	{Name: "fig15", Title: "Fig. 15 — DSARP improvement by memory intensity", specs: fig15Specs, assemble: stringer(assembleFig15)},
	{Name: "table3", Title: "Table 3 — core-count sensitivity", specs: table3Specs, assemble: stringer(assembleTable3)},
	{Name: "table4", Title: "Table 4 — tFAW/tRRD sensitivity", specs: table4Specs, assemble: stringer(assembleTable4)},
	{Name: "table5", Title: "Table 5 — subarrays-per-bank sensitivity", specs: table5Specs, assemble: stringer(assembleTable5)},
	{Name: "table6", Title: "Table 6 — DSARP at 64 ms retention", specs: table6Specs, assemble: stringer(assembleTable6)},
	{Name: "fig16", Title: "Fig. 16 — DDR4 FGR and adaptive refresh", specs: fig16Specs, assemble: stringer(assembleFig16)},
	{Name: "ablations", Title: "DESIGN.md §4 design-choice ablations", specs: ablationSpecs, assemble: stringer(assembleAblations)},
	{Name: "pausing", Title: "Extension — refresh pausing comparison", specs: pausingSpecs, assemble: stringer(assemblePausing)},
}

// stringer adapts a typed assemble function to the registry's fmt.Stringer
// form; the concrete result type survives behind the interface.
func stringer[T fmt.Stringer](assemble func(*Runner, Results) T) func(*Runner, Results) fmt.Stringer {
	return func(r *Runner, res Results) fmt.Stringer { return assemble(r, res) }
}

// Experiments returns every registered experiment in canonical order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// WarmCount reports how many of the specs already have an entry in the
// store — the shared definition of "warm" behind cmd/experiments -list
// and GET /v1/experiments. Existence probes only; no payloads are read
// and LRU state is untouched. The dominant cost is Key() — a SHA-256
// over each spec's full benchmark profiles — so the probes fan out over
// a worker pool; enumerating a whole registry of experiments against a
// large store stays interactive.
func WarmCount(st *store.Store, specs []SimSpec) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		warm := 0
		for _, s := range specs {
			if st.Contains(s.Key()) {
				warm++
			}
		}
		return warm
	}
	var (
		next atomic.Int64
		warm atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				if st.Contains(specs[i].Key()) {
					warm.Add(1)
				}
			}
		}()
	}
	wg.Wait()
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

// specList accumulates an experiment's spec enumeration: run specs in
// append order, alone-run specs collected separately and appended at the
// end, everything deduplicated by content key.
type specList struct {
	runs   []SimSpec
	alones []SimSpec
	seen   map[store.Key]bool
}

func newSpecList() *specList { return &specList{seen: map[store.Key]bool{}} }

func (l *specList) add(s SimSpec) {
	k := s.Key()
	if !l.seen[k] {
		l.seen[k] = true
		l.runs = append(l.runs, s)
	}
}

// addRun enumerates one canonical run.
func (l *specList) addRun(r *Runner, wl workload.Workload, k core.Kind, d timing.Density, variant string) {
	l.add(r.specFor(wl, k, d, variant))
}

// addAlones enumerates the alone runs behind a workload's WS normalization.
func (l *specList) addAlones(r *Runner, wl workload.Workload) {
	for _, b := range wl.Benchmarks {
		s := r.AloneSpec(b)
		k := s.Key()
		if !l.seen[k] {
			l.seen[k] = true
			l.alones = append(l.alones, s)
		}
	}
}

// addWS enumerates a run plus its workload's alone runs.
func (l *specList) addWS(r *Runner, wl workload.Workload, k core.Kind, d timing.Density, variant string) {
	l.addRun(r, wl, k, d, variant)
	l.addAlones(r, wl)
}

func (l *specList) list() []SimSpec {
	return append(append([]SimSpec{}, l.runs...), l.alones...)
}
