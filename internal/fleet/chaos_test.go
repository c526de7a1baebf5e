package fleet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/serve"
)

// TestChaosWorkerKilledMidRun is the acceptance scenario: a three-worker
// registry experiment where one worker is killed mid-run by the chaos
// harness (the in-process stand-in for -chaos kill=N on dsarpd) and
// restarted shortly after. The run must complete with zero lost specs
// and a table byte-identical to a single-node golden.
func TestChaosWorkerKilledMidRun(t *testing.T) {
	opts := tinyOpts()
	// A fast machine can drain the whole 24-spec run before the victim's
	// request counter reaches KillAfter (the kill then never fires and the
	// test exercises nothing). Longer simulations keep the run alive well
	// past the kill threshold — the 100ms health probes alone reach it —
	// and past the 300ms supervisor restart, so the death is genuinely
	// mid-run on any hardware.
	opts.Measure = 300_000
	golden, err := exp.NewRunner(opts).RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}

	w1 := startWorker(t, opts)
	w2 := startWorker(t, opts)
	victim := startWorker(t, opts)
	var killFired atomic.Bool
	// After a handful of /v1 requests (probes count too — that is the
	// point: death strikes wherever it strikes) the victim dies abruptly
	// and a supervisor stand-in restarts it 300ms later, chaos disarmed.
	chaos := &serve.Chaos{
		KillAfter: 3,
		Kill: func() {
			killFired.Store(true)
			go func() {
				victim.kill()
				time.Sleep(300 * time.Millisecond)
				victim.start(nil)
			}()
		},
	}
	victim.kill()
	victim.start(chaos)

	cfg := testConfig(w1.url(), w2.url(), victim.url())
	o := mustOrch(t, cfg)
	r := exp.NewRunner(opts) // enumeration scale only; runs no sims

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := o.RunExperiment(ctx, r, "fig7")
	if err != nil {
		t.Fatalf("RunExperiment under chaos: %v", err)
	}
	if !killFired.Load() {
		t.Fatal("chaos kill never fired; the test exercised nothing")
	}
	if got.String() != golden.String() {
		t.Errorf("table diverged from single-node golden under worker death:\ngot:\n%s\nwant:\n%s", got, golden)
	}
	if st := o.Stats(); st.Failed != 0 {
		t.Errorf("lost %d specs to permanent failure; want 0", st.Failed)
	}
}

// TestChaosFaultInjection floods all three workers with probabilistic
// faults — 500s, dropped connections, stalled responses — and demands
// the orchestrator still produce the exact single-node table. No spec
// may be lost to a transient fault.
func TestChaosFaultInjection(t *testing.T) {
	opts := tinyOpts()
	golden, err := exp.NewRunner(opts).RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}

	var workers []*testWorker
	for i := 0; i < 3; i++ {
		tw := startWorker(t, opts)
		tw.kill()
		tw.start(&serve.Chaos{
			FailProb:  0.15,
			DropProb:  0.10,
			StallProb: 0.10,
			Stall:     50 * time.Millisecond,
			Seed:      int64(1 + i),
		})
		workers = append(workers, tw)
	}

	cfg := testConfig(workers[0].url(), workers[1].url(), workers[2].url())
	cfg.RequestTimeout = 30 * time.Second
	o := mustOrch(t, cfg)
	r := exp.NewRunner(opts)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := o.RunExperiment(ctx, r, "fig7")
	if err != nil {
		t.Fatalf("RunExperiment under fault injection: %v", err)
	}
	if got.String() != golden.String() {
		t.Errorf("table diverged from single-node golden under fault injection:\ngot:\n%s\nwant:\n%s", got, golden)
	}
	if st := o.Stats(); st.Failed != 0 {
		t.Errorf("lost %d specs to permanent failure; want 0", st.Failed)
	}
}
