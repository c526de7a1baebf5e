package sim

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsarp/internal/core"
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

// checkDigests compares got (one "name sha256" line per entry, in order)
// with the fixture at path, rewriting the fixture first when
// DSARP_UPDATE_DIGESTS is set.
func checkDigests(t *testing.T, path string, got []string) {
	t.Helper()
	if os.Getenv("DSARP_UPDATE_DIGESTS") != "" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s — bump snap.Version in the same change", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing digest fixture (regenerate with DSARP_UPDATE_DIGESTS=1): %v", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, fixture %s has %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest drifted:\n got:  %s\n want: %s", got[i], want[i])
		}
	}
}

// TestSnapshotDigests pins the SHA-256 of every checkpoint — the warmup
// boundary, each periodic one and the window end — for every mechanism on
// both engines. golden.snap pins the layout for one mechanism before the
// window opens; this pins the captured state of all of them, measurement
// baseline included. A change here needs a snap.Version bump
// (scripts/check-schema-bump.sh).
func TestSnapshotDigests(t *testing.T) {
	var got []string
	for _, e := range []Engine{EngineEvent, EngineCycle} {
		for _, k := range core.Kinds() {
			cfg := digestConfig(t, k, e)
			_, tail, err := RunWithCheckpoints(cfg, 5_000, func(cycle int64, data []byte) {
				got = append(got, fmt.Sprintf("%s %s %d %x", k, e, cycle, sha256.Sum256(data)))
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
	checkDigests(t, filepath.Join("testdata", "snapshot_digests.txt"), got)
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
