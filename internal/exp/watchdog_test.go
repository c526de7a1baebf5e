package exp

import (
	"errors"
	"testing"
	"time"

	"dsarp/internal/timing"
)

// watchdogSpec is a deliberately long simulation so the 1ns budget always
// expires while it is still running.
func watchdogSpec() SimSpec {
	return SimSpec{
		Name:           "watchdog",
		BenchmarkNames: []string{"h264.encode"},
		Mechanism:      "REFab",
		DensityGb:      8,
		Seed:           7,
		Warmup:         50_000,
		Measure:        2_000_000,
	}
}

// TestSimTimeoutAborts: with a vanishing wall-clock budget, RunSpecInfo
// surfaces ErrSimTimeout, executes no lasting work (nothing cached or
// stored), and a runner without the budget still computes the same spec.
func TestSimTimeoutAborts(t *testing.T) {
	opts := Options{
		PerCategory: 1, Sensitivity: 1, Cores: 2,
		Warmup: 2_000, Measure: 8_000, Seed: 42,
		Densities:  []timing.Density{timing.Gb8},
		SimTimeout: time.Nanosecond,
		Store:      openStore(t),
	}
	r := NewRunner(opts)
	_, _, err := r.RunSpecInfo(watchdogSpec())
	if !errors.Is(err, ErrSimTimeout) {
		t.Fatalf("RunSpecInfo under 1ns budget = %v, want ErrSimTimeout", err)
	}
	if n := r.SimsRun(); n != 0 {
		t.Errorf("aborted run counted as %d completed sims", n)
	}
	if opts.Store.Len() != 0 {
		t.Error("aborted run left an entry in the store")
	}

	// A retry on a runner with headroom (same store) computes cleanly:
	// the abort poisoned nothing.
	opts.SimTimeout = 0
	spec := watchdogSpec()
	spec.Measure = 8_000 // small enough to finish promptly
	r2 := NewRunner(opts)
	t.Cleanup(r2.WaitWrites)
	if _, info, err := r2.RunSpecInfo(spec); err != nil || info.Source != SourceComputed {
		t.Fatalf("retry = src %v err %v, want clean compute", info.Source, err)
	}
}

// TestSimTimeoutSparesCachedResults: the budget covers simulation work
// only — a warm store serves instantly however small the timeout.
func TestSimTimeoutSparesCachedResults(t *testing.T) {
	st := openStore(t)
	warmOpts := Options{
		PerCategory: 1, Sensitivity: 1, Cores: 2,
		Warmup: 2_000, Measure: 8_000, Seed: 42,
		Densities: []timing.Density{timing.Gb8},
		Store:     st,
	}
	spec := watchdogSpec()
	spec.Measure = 8_000
	_, info, err := NewRunner(warmOpts).RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	info.Writes.Wait() // the result lands in the store behind the call

	warmOpts.SimTimeout = time.Nanosecond
	r := NewRunner(warmOpts)
	if _, info, err := r.RunSpecInfo(spec); err != nil || info.Source != SourceStore {
		t.Fatalf("warm hit under 1ns budget = src %v err %v, want store hit", info.Source, err)
	}
}
