package sim

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/golden"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// digestConfig is the small configuration the digest fixtures pin: a
// four-core 25%-intensive mix at 32 Gb whose measurement window is long
// enough that every mechanism refreshes, drains and (outside writeback
// mode) drains writes opportunistically, yet short enough that all 13
// mechanisms on both engines run in well under a second.
func digestConfig(t *testing.T, k core.Kind, e Engine) Config {
	t.Helper()
	w := workload.Mixes(1, 4, 3)[1]
	if w.Name != "mix01.cat25" {
		t.Fatalf("digest workload is %s, want mix01.cat25", w.Name)
	}
	return Config{
		Workload:  w,
		Mechanism: k,
		Density:   timing.Gb32,
		Engine:    e,
		Seed:      3,
		Warmup:    5_000,
		Measure:   20_000,
	}.WithDefaults()
}

// TestSnapshotDigests pins the SHA-256 of every checkpoint — the warmup
// boundary, each periodic one and the window end — for every mechanism on
// both engines. golden.snap pins the layout for one mechanism before the
// window opens; this pins the captured state of all of them, measurement
// baseline included. A change here needs a snap.Version bump
// (scripts/check-schema-bump.sh); scripts/regen.sh regenerates it.
func TestSnapshotDigests(t *testing.T) {
	var got []byte
	for _, e := range []Engine{EngineEvent, EngineCycle} {
		for _, k := range core.Kinds() {
			cfg := digestConfig(t, k, e)
			_, tail, err := RunWithCheckpoints(cfg, 5_000, func(cycle int64, data []byte) {
				got = fmt.Appendf(got, "%s %s %d %x\n", k, e, cycle, sha256.Sum256(data))
			})
			if err != nil {
				t.Fatalf("%s %s: %v", k, e, err)
			}
			if tail == nil {
				t.Fatalf("%s %s: no window-end checkpoint", k, e)
			}
			tail()
		}
	}
	golden.Check(t, filepath.Join("testdata", "snapshot_digests.txt"), got)
}

// TestOpportunisticDrainWindowedAsZero pins a known reporting defect so
// it cannot change by accident: the controllers count opportunistic drain
// cycles inside the measurement window, but Result.Sched reports 0 for
// them, because the windowing has always left the counter out. System.snap
// keeps that with one line that zeroes the summed counter; deleting it
// changes stored results and needs an exp.SchemaVersion bump.
func TestOpportunisticDrainWindowedAsZero(t *testing.T) {
	for _, k := range core.Kinds() {
		cfg := digestConfig(t, k, EngineEvent)
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(cfg.Warmup)
		s.beginMeasure()
		before := drainCycles(s)
		s.RunTo(cfg.Warmup + cfg.Measure)
		res := s.result()
		if drainCycles(s) == before {
			t.Errorf("%s: no opportunistic drain inside the window; the config no longer exercises the counter", k)
		}
		if res.Sched.OpportunisticDrain != 0 {
			t.Errorf("%s: Result.Sched.OpportunisticDrain = %d, want 0 until the SchemaVersion bump "+
				"that deletes the zeroing line in System.snap", k, res.Sched.OpportunisticDrain)
		}
	}
}

func drainCycles(s *System) int64 {
	var n int64
	for _, c := range s.ctrls {
		n += c.Stats().OpportunisticDrain
	}
	return n
}
