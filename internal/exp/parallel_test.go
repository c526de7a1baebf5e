package exp

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/golden"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// goldenOpts is the fixed configuration behind testdata/golden_table2.txt
// and golden_fig13.txt: small enough to run in seconds, large enough to
// exercise several densities and mechanisms. A change that alters either
// fixture is a behaviour change, not an optimization: scripts/regen.sh
// rewrites them, and the same change must bump exp.SchemaVersion
// (scripts/check-schema-bump.sh), or warm stores would keep serving the
// pre-change results.
func goldenOpts() Options {
	return Options{
		PerCategory: 1,
		Sensitivity: 1,
		Cores:       2,
		Warmup:      5_000,
		Measure:     20_000,
		Seed:        42,
		Densities:   []timing.Density{timing.Gb8, timing.Gb32},
	}
}

// checkGoldenTables runs Table 2 and Fig. 13 on r and checks each render
// against its fixture.
func checkGoldenTables(t *testing.T, r *Runner) {
	t.Helper()
	golden.Check(t, filepath.Join("testdata", "golden_table2.txt"), []byte(runAs[Table2Result](t, r, "table2").String()))
	golden.Check(t, filepath.Join("testdata", "golden_fig13.txt"), []byte(runAs[Fig13Result](t, r, "fig13").String()))
}

// TestGoldenTablesMatchSeed pins the Table 2 and Fig. 13 renders byte for
// byte at every parallelism level: fully serial, a worker pool wider than
// the task list, and the auto (per-CPU) setting.
func TestGoldenTablesMatchSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation golden run")
	}
	for _, par := range []int{1, 8, 0} {
		opts := goldenOpts()
		opts.Parallelism = par
		checkGoldenTables(t, NewRunner(opts))
		if t.Failed() {
			t.Fatalf("Parallelism=%d diverged from the fixtures", par)
		}
	}
}

// TestParallelRunnerSharedRuns checks that concurrent experiments still
// share simulations: after Table2 and Fig13 (which reuse the same REFab/
// REFpb/DSARP runs) the cache must hold every completed run exactly once.
func TestParallelRunnerSharedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation run")
	}
	opts := goldenOpts()
	opts.Parallelism = 8
	var mu sync.Mutex
	seen := map[string]int{}
	opts.Progress = func(_ int, label string) {
		mu.Lock()
		seen[label]++
		mu.Unlock()
	}
	r := NewRunner(opts)
	runAs[Table2Result](t, r, "table2")
	runAs[Fig13Result](t, r, "fig13")
	for label, n := range seen {
		if n != 1 {
			t.Errorf("simulation %q ran %d times; in-flight dedup failed", label, n)
		}
	}
	if len(seen) != r.done {
		t.Errorf("progress reported %d distinct runs, runner counted %d", len(seen), r.done)
	}
}

// TestRunPanicReleasesWaiters pins the failure contract of the in-flight
// dedup: when the computing worker panics (simulation config error), every
// waiter on the same key must be released with the same panic instead of
// blocking forever on the entry's done channel.
func TestRunPanicReleasesWaiters(t *testing.T) {
	opts := goldenOpts()
	opts.Parallelism = 2
	r := NewRunner(opts)
	// No benchmarks: sim.Run errors, so runSpec panics.
	bad := r.specFor(workload.Workload{Name: "bad"}, core.KindNoRef, timing.Gb8, "")

	results := make(chan any, 2)
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { results <- recover() }()
			r.runSpec(bad, bad.Key(), nil, false)
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case v := <-results:
			if v == nil {
				t.Error("run on a broken workload should panic")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter deadlocked on a panicked in-flight run")
		}
	}
}
