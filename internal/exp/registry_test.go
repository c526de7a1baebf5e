package exp

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsarp/internal/golden"
	"dsarp/internal/timing"
)

// registryOpts is a one-density, one-workload-per-category scale: big
// enough that every experiment has real content, small enough that running
// the complete registry stays in test budget.
func registryOpts() Options {
	return Options{
		PerCategory: 1,
		Sensitivity: 1,
		Cores:       2,
		Warmup:      2_000,
		Measure:     8_000,
		Seed:        42,
		Densities:   []timing.Density{timing.Gb8},
	}
}

// registryFixture is the fixture that pins an experiment's render at
// registryOpts().
func registryFixture(name string) string {
	return filepath.Join("testdata", "registry", name+".txt")
}

// TestRegistryMatchesGolden is the registry's output contract, for every
// entry, byte for byte against its fixture: (a) a cold RunExperiment, (b)
// enumerate specs → results from the content-addressed store → pure
// Assemble with zero simulations, and (c) a warm rerun over the same store
// with zero simulations — the resume path of an interrupted fleet. Phase
// (b) deliberately reads raw store bytes through DecodeResult on a
// store-less runner — exactly what a fleet client does after fetching
// results from dsarpd workers. It also checks that the enumeration is
// exact in both directions: (c) fails on a spec Specs misses, and (b)
// removes each enumerated spec in turn and requires Assemble to fail
// naming it, so Specs lists nothing the assembly does not read.
func TestRegistryMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the complete registry")
	}
	st := openStore(t)
	opts := registryOpts()
	opts.Store = st

	cold := NewRunner(opts)
	for _, e := range Experiments() {
		out, err := cold.RunExperiment(e.Name)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		golden.Check(t, registryFixture(e.Name), []byte(out.String()))
	}
	if cold.SimsRun() == 0 {
		t.Fatal("cold pass executed no simulations")
	}
	// Counted after the cold pass, so that update mode can add the fixture
	// of a new experiment; a stale one stays for a person to delete.
	fixtures, err := filepath.Glob(registryFixture("*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != len(Experiments()) {
		t.Errorf("%d registry fixtures for %d experiments", len(fixtures), len(Experiments()))
	}

	// Assembly-only pass: a fresh runner that never simulates and never
	// even sees the store — results arrive as decoded wire bytes.
	assembler := NewRunner(registryOpts())
	for _, e := range Experiments() {
		specs := e.Specs(assembler)
		results := Results{}
		for _, spec := range specs {
			data, ok := st.Get(spec.Key())
			if !ok {
				t.Fatalf("%s: spec %v not in store after cold pass", e.Name, spec)
			}
			res, err := DecodeResult(data)
			if err != nil {
				t.Fatalf("%s: decode: %v", e.Name, err)
			}
			results.Add(spec, res)
		}
		out, err := e.Assemble(assembler, results)
		if err != nil {
			t.Fatalf("%s: assemble: %v", e.Name, err)
		}
		golden.Check(t, registryFixture(e.Name), []byte(out.String()))
		for _, spec := range specs {
			k := spec.Key()
			held := results[k]
			delete(results, k)
			_, err := e.Assemble(assembler, results)
			if err == nil || !strings.Contains(err.Error(), "missing result") || !strings.Contains(err.Error(), k.String()) {
				t.Errorf("%s: assembled without %s: err = %v, want a missing-result error naming it", e.Name, spec.label(), err)
			}
			results[k] = held
		}
	}
	if n := assembler.SimsRun(); n != 0 {
		t.Errorf("assembly pass executed %d simulations, want 0", n)
	}

	// A warm rerun over the same store: byte-identical again, still zero
	// simulations.
	warm := NewRunner(opts)
	for _, e := range Experiments() {
		out, err := warm.RunExperiment(e.Name)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		golden.Check(t, registryFixture(e.Name), []byte(out.String()))
	}
	if n := warm.SimsRun(); n != 0 {
		t.Errorf("warm pass executed %d simulations, want 0 (spec enumeration incomplete?)", n)
	}
}

// TestRegistryCoversCmdNames pins the registry to the historical
// cmd/experiments -run vocabulary and order.
func TestRegistryCoversCmdNames(t *testing.T) {
	want := []string{"fig5", "fig6", "fig7", "fig12", "table2", "fig13", "breakdown",
		"fig14", "fig15", "table3", "table4", "table5", "table6", "fig16", "ablations", "pausing"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, e.Name, want[i])
		}
		if e.Title == "" {
			t.Errorf("%s: no title", e.Name)
		}
		if _, ok := LookupExperiment(e.Name); !ok {
			t.Errorf("LookupExperiment(%q) missed", e.Name)
		}
	}
	if _, ok := LookupExperiment("table99"); ok {
		t.Error("LookupExperiment invented an experiment")
	}
}

// TestSpecCountsAtPaperScale enumerates the whole registry at Paper(),
// which runs no simulation, and pins every experiment's spec count. A
// panic fails it: every assembly must run on the recorder's stand-in
// results. The counts are those the hand-written per-experiment
// enumerations produced before Specs was derived from the assemblies.
func TestSpecCountsAtPaperScale(t *testing.T) {
	want := map[string]int{
		"fig5": 0, "fig6": 618, "fig7": 918, "fig12": 1518, "table2": 1518,
		"fig13": 2418, "breakdown": 918, "fig14": 2400, "fig15": 918,
		"table3": 106, "table4": 202, "table5": 234, "table6": 918,
		"fig16": 1518, "ablations": 122, "pausing": 1518,
	}
	r := NewRunner(Paper())
	for _, e := range Experiments() {
		if got := len(e.Specs(r)); got != want[e.Name] {
			t.Errorf("%s: %d specs at Paper(), want %d", e.Name, got, want[e.Name])
		}
	}
	if len(want) != len(Experiments()) {
		t.Errorf("%d pinned counts for %d experiments", len(want), len(Experiments()))
	}
}

// TestSpecsAreCanonicalAndUnique: every enumeration yields specs that
// survive PrepareSpec unchanged (same key) and contains no duplicates —
// the properties the serving layer and fleet clients rely on.
func TestSpecsAreCanonicalAndUnique(t *testing.T) {
	r := NewRunner(registryOpts())
	for _, e := range Experiments() {
		seen := map[string]bool{}
		for i, spec := range e.Specs(r) {
			key := spec.Key().String()
			if seen[key] {
				t.Errorf("%s: spec %d is a duplicate (%s)", e.Name, i, spec.label())
			}
			seen[key] = true
			prepared, err := r.PrepareSpec(spec)
			if err != nil {
				t.Errorf("%s: spec %d rejected by PrepareSpec: %v", e.Name, i, err)
				continue
			}
			if prepared.Key() != spec.Key() {
				t.Errorf("%s: spec %d not canonical: key changed under PrepareSpec (%s)", e.Name, i, spec.label())
			}
		}
	}
}

// TestSpecsMemoizedPerRunner: a runner enumerates each experiment once,
// also when several goroutines ask for it first at the same time. Every
// Specs call returns the list a fresh runner enumerates, as a copy the
// caller may change, and the memoized keys WarmCount probes are the
// listed specs' own keys.
func TestSpecsMemoizedPerRunner(t *testing.T) {
	opts := registryOpts()
	opts.Store = openStore(t)
	r := NewRunner(opts)
	exps := Experiments()
	lists := make([][][]SimSpec, 4)
	warm := make([][]int, len(lists))
	var wg sync.WaitGroup
	for g := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range exps {
				lists[g] = append(lists[g], e.Specs(r))
				warm[g] = append(warm[g], r.WarmCount(e))
			}
		}()
	}
	wg.Wait()
	for i, e := range exps {
		want := e.Specs(NewRunner(registryOpts()))
		for g := range lists {
			if !reflect.DeepEqual(lists[g][i], want) {
				t.Fatalf("%s: caller %d got a list that differs from a fresh runner's", e.Name, g)
			}
			if warm[g][i] != 0 {
				t.Errorf("%s: caller %d counts %d warm specs in an empty store", e.Name, g, warm[g][i])
			}
		}
		if len(want) > 0 {
			lists[0][i][0].Name = "changed by the caller"
		}
		if got := e.Specs(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a caller's change to its copy reached the memo", e.Name)
		}
		keys := r.enumerate(e).keys
		if len(keys) != len(want) {
			t.Fatalf("%s: %d keys for %d specs", e.Name, len(keys), len(want))
		}
		for j, spec := range want {
			if keys[j] != spec.Key() {
				t.Errorf("%s: key %d is not spec %d's key", e.Name, j, j)
			}
		}
	}
}

// TestAssembleReportsMissingResults: an incomplete result map is an error
// naming the hole, never a silently wrong table.
func TestAssembleReportsMissingResults(t *testing.T) {
	r := NewRunner(registryOpts())
	e, ok := LookupExperiment("table2")
	if !ok {
		t.Fatal("no table2 entry")
	}
	_, err := e.Assemble(r, Results{})
	if err == nil || !strings.Contains(err.Error(), "missing result") {
		t.Errorf("assemble from empty results: err = %v, want missing-result error", err)
	}
}

// TestRunExperimentUnknownName: the generic entry point rejects unknown
// names instead of panicking.
func TestRunExperimentUnknownName(t *testing.T) {
	r := NewRunner(registryOpts())
	if _, err := r.RunExperiment("fig99"); err == nil {
		t.Error("unknown experiment did not error")
	}
}

// TestFig5ZeroSpecs: the analytic figure is a zero-spec experiment and
// assembles from an empty map.
func TestFig5ZeroSpecs(t *testing.T) {
	r := NewRunner(registryOpts())
	e, _ := LookupExperiment("fig5")
	if n := len(e.Specs(r)); n != 0 {
		t.Fatalf("fig5 enumerates %d specs, want 0", n)
	}
	out, err := e.Assemble(r, Results{})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, registryFixture("fig5"), []byte(out.String()))
	if s, err := r.RunExperiment("fig5"); err != nil || s.String() != out.String() {
		t.Errorf("RunExperiment(fig5): %v", err)
	}
}

var _ fmt.Stringer = Fig12Set{} // the fig12 bundle renders like any other result
