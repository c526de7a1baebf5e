package exp

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// goldenOpts is the fixed configuration behind the golden table strings
// below: small enough to run in seconds, large enough to exercise several
// densities and mechanisms.
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

// goldenTable2/goldenFig13 live in testdata/: they were produced by the
// seed (serial, pre-index) runner at goldenOpts. Any scheduler or runner
// change that alters them is a behavior change, not an optimization — and
// any diff that touches those fixture files MUST bump exp.SchemaVersion in
// the same change (enforced by scripts/check-schema-bump.sh in CI), or
// warm stores would keep serving the pre-change results.
var (
	goldenTable2 = readGolden("golden_table2.txt")
	goldenFig13  = readGolden("golden_fig13.txt")
)

// readGolden loads a fixture; a missing file panics at test init, which is
// louder (and earlier) than every golden comparison failing one by one.
func readGolden(name string) string {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		panic(err)
	}
	return string(data)
}

// TestGoldenTablesMatchSeed pins Table2 and Fig13 output to the seed
// runner's, byte for byte, at every parallelism level: fully serial, a
// worker pool wider than the task list, and the auto (per-CPU) setting.
func TestGoldenTablesMatchSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation golden run")
	}
	for _, par := range []int{1, 8, 0} {
		opts := goldenOpts()
		opts.Parallelism = par
		r := NewRunner(opts)
		if got := runAs[Table2Result](t, r, "table2").String(); got != goldenTable2 {
			t.Errorf("Parallelism=%d: Table2 diverged from seed:\n got:\n%s\nwant:\n%s", par, got, goldenTable2)
		}
		if got := runAs[Fig13Result](t, r, "fig13").String(); got != goldenFig13 {
			t.Errorf("Parallelism=%d: Fig13 diverged from seed:\n got:\n%s\nwant:\n%s", par, got, goldenFig13)
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
