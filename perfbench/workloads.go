package main

import (
	"fmt"
	"math/rand"

	"dsarp/internal/exp"
	"dsarp/internal/trace"
	"dsarp/internal/workload"
)

// mechanisms are the six refresh mechanisms every workload simulates, in
// spec order.
var mechanisms = []string{"REFab", "REFpb", "DARP", "SARPpb", "DSARP", "NoREF"}

// densityGb is the chip density of every simulation: the paper's largest,
// where refresh costs the most.
const densityGb = 32

// cores is the core count of every mix.
const cores = 8

// simSeed is the simulation seed of every spec. The simulated machine's
// results, and so the DSARP metrics, vary strongly with it (the REFab
// penalty on sat-read ranges over 37-80% across seeds 1-8), so it is fixed:
// --seed varies the request stream, not what is simulated, and every
// result has a pinned digest in pins.json.
const simSeed = 1

// sizes fix how much work one round of a workload does.
type sizes struct {
	// Batch simulations (sat-*, idle-skip): DRAM cycles per spec.
	batchWarmup, batchMeasure int64
	// Service leg: cold specs run svcWarmup+svcMeasure cycles; extend
	// re-requests them with extendMeasure and resumes from a checkpoint the
	// cold run wrote.
	svcWarmup, svcMeasure, extendMeasure int64
	// warmRepeats is how many times the warm phase re-requests each cold
	// spec.
	warmRepeats int
}

// benchWorkload is one named workload.
type benchWorkload struct {
	name string
	why  string
	// batch mixes are simulated directly through exp.Runner.RunSpecInfo
	// with no store; nil for the service workload, whose cold phase is its
	// computing phase.
	batch []workload.Workload
	// service mixes go through the in-process dsarpd.
	service []workload.Workload
	sz      sizes
}

// simSizes is the round shape of the three simulator workloads: a batch
// pass long enough that one spec covers several refresh intervals, and a
// short service leg over the same mixes.
var simSizes = sizes{
	batchWarmup: 20_000, batchMeasure: 80_000,
	svcWarmup: 4_000, svcMeasure: 16_000, extendMeasure: 24_000,
	warmRepeats: 42,
}

var (
	readProfiles  = []string{"libq.scan", "tpch.scan", "mcf.chase", "rand.access", "soplex.solve"}
	writeProfiles = []string{"lbm.sweep", "stream.triad", "milc.lattice", "gems.fdtd", "tpcc.oltp"}
)

// workloads returns the benchmark's workloads. Mix composition is fixed
// (it does not depend on --seed), so run-to-run aggregates stay comparable.
func workloads() []benchWorkload {
	var idle []string
	for _, p := range workload.NonIntensive() {
		idle = append(idle, p.Name)
	}
	read := drawMixes("read", readProfiles, 4, 101)
	write := drawMixes("write", writeProfiles, 4, 202)
	quiet := drawMixes("idle", idle, 4, 303)
	svcSizes := simSizes
	svcSizes.warmRepeats = 100
	return []benchWorkload{
		{name: "sat-read", why: "read-dominant intensive mixes: nearly every cycle is stepped, so sched/dram/core cost per cycle sets host time",
			batch: read, service: read, sz: simSizes},
		{name: "sat-write", why: "write-dominant intensive mixes: writeback drains and DARP refresh-during-drain carry the sched/core work",
			batch: write, service: write, sz: simSizes},
		{name: "idle-skip", why: "non-intensive mixes: the event engine skips most cycles, so sim/cpu skip paths dominate and sched/dram idle",
			batch: quiet, service: quiet, sz: simSizes},
		{name: "service", why: "in-process dsarpd with a store: cold sims, warm store hits and checkpoint-resumed extensions over HTTP",
			service: workload.Mixes(1, cores, 7), sz: svcSizes},
	}
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// drawMixes builds n mixes of cores benchmarks drawn uniformly from the
// named library profiles with a fixed generator.
func drawMixes(prefix string, names []string, n int, rngSeed int64) []workload.Workload {
	lib := make([]trace.Profile, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			panic(err) // the names above are library constants
		}
		lib[i] = p
	}
	rng := rand.New(rand.NewSource(rngSeed))
	out := make([]workload.Workload, n)
	for m := range out {
		mix := make([]trace.Profile, cores)
		for i := range mix {
			mix[i] = lib[rng.Intn(len(lib))]
		}
		out[m] = workload.Workload{Name: fmt.Sprintf("%s%d", prefix, m), Benchmarks: mix}
	}
	return out
}

// specsFor enumerates mix-major, mechanism-minor specs: the canonical order
// digests are taken in.
func specsFor(mixes []workload.Workload, warmup, measure int64) []exp.SimSpec {
	var out []exp.SimSpec
	for _, m := range mixes {
		for _, mech := range mechanisms {
			out = append(out, exp.SimSpec{
				Name:       m.Name,
				Benchmarks: m.Benchmarks,
				Mechanism:  mech,
				DensityGb:  densityGb,
				Seed:       simSeed,
				Warmup:     warmup,
				Measure:    measure,
			})
		}
	}
	return out
}

// plan is one run's inputs, all derived from the workload and --seed.
type plan struct {
	w benchWorkload
	// Specs in canonical order.
	batch, cold, extend []exp.SimSpec
	// Issue orders (indices into the spec slices), shuffled by --seed.
	batchOrder, coldOrder, warmOrder, extendOrder []int
}

// newPlan derives a run's inputs: the workload fixes the specs, and seed
// shuffles the order the batch loop and the HTTP client issue them in.
func newPlan(w benchWorkload, seed int64) *plan {
	p := &plan{w: w}
	sz := w.sz
	p.batch = specsFor(w.batch, sz.batchWarmup, sz.batchMeasure)
	p.cold = specsFor(w.service, sz.svcWarmup, sz.svcMeasure)
	p.extend = specsFor(w.service, sz.svcWarmup, sz.extendMeasure)
	rng := rand.New(rand.NewSource(seed))
	p.batchOrder = rng.Perm(len(p.batch))
	p.coldOrder = rng.Perm(len(p.cold))
	for r := 0; r < sz.warmRepeats; r++ {
		p.warmOrder = append(p.warmOrder, rng.Perm(len(p.cold))...)
	}
	p.extendOrder = rng.Perm(len(p.extend))
	return p
}
