package sched_test

// Golden pinning of the controller's observable behavior: a fixed request
// trace runs under every refresh mechanism (including the SARP device paths,
// where ACT legality depends on the requested row's subarray), and the final
// controller and device statistics are pinned in testdata/fixed_trace.txt
// (the paper's seven mechanisms) and testdata/fixed_trace_extended.txt (every
// other mechanism of core.Kinds()).

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/dram"
	"dsarp/internal/golden"
	"dsarp/internal/sched"
	"dsarp/internal/timing"
)

func goldenGeom() dram.Geometry {
	return dram.Geometry{Ranks: 2, Banks: 8, SubarraysPerBank: 4, RowsPerBank: 64,
		ColumnsPerRow: 8, RowsPerRef: 2}
}

// driveFixedTrace runs one controller under kind for cycles DRAM cycles with
// a deterministic open/conflict-heavy request mix and returns the final
// controller and device statistics.
func driveFixedTrace(t *testing.T, kind core.Kind, cycles int64) (sched.Stats, dram.Stats) {
	t.Helper()
	g := goldenGeom()
	tp := timing.DDR3(timing.Config{Density: timing.Gb32, Mode: kind.RefMode()})
	dev, err := dram.New(g, tp, dram.Options{SARP: kind.SARP(), Check: true})
	if err != nil {
		t.Fatal(err)
	}
	c := sched.NewController(dev, sched.DefaultConfig())
	c.SetPolicy(core.New(kind, c, 12345))

	rng := rand.New(rand.NewSource(99))
	inject := cycles * 2 / 3 // then drain, so idle/empty-queue scans run too
	for now := int64(0); now < cycles; now++ {
		// Bursty injection: occasional short bursts with idle gaps, so busy
		// scans, idle scans, and opportunistic write drains are all exercised.
		if now < inject && rng.Intn(12) == 0 {
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				a := dram.Addr{
					Rank: rng.Intn(g.Ranks),
					Bank: rng.Intn(g.Banks),
					Row:  rng.Intn(24), // small row set: frequent hits and conflicts
					Col:  rng.Intn(g.ColumnsPerRow),
				}
				if rng.Intn(3) == 0 {
					c.EnqueueWrite(&sched.Request{Core: 0, IsWrite: true, Addr: a}, now)
				} else {
					c.EnqueueRead(&sched.Request{Core: 0, Addr: a}, now)
				}
			}
		}
		c.Tick(now)
	}
	if err := dev.Checker().Err(); err != nil {
		t.Fatalf("%v: protocol violations: %v", kind, err)
	}
	return c.Stats(), dev.Stats()
}

// paperKinds are the seven mechanisms of the paper's main evaluation.
var paperKinds = map[core.Kind]bool{
	core.KindNoRef: true, core.KindREFab: true, core.KindREFpb: true,
	core.KindElastic: true, core.KindDARP: true, core.KindSARPpb: true,
	core.KindDSARP: true,
}

// TestGoldenFixedTraceStats pins the fixed trace under the paper's seven
// mechanisms.
func TestGoldenFixedTraceStats(t *testing.T) {
	checkFixedTrace(t, "fixed_trace.txt", true)
}

// TestGoldenFixedTraceStatsExtended pins the remaining mechanisms — the
// §6.1.2 breakdown configuration, SARPab, the DDR4 baselines, adaptive
// refresh, refresh pausing, and any mechanism core.Kinds() gains later.
func TestGoldenFixedTraceStatsExtended(t *testing.T) {
	checkFixedTrace(t, "fixed_trace_extended.txt", false)
}

// checkFixedTrace drives the fixed trace under each mechanism of core.Kinds()
// that paperKinds marks as paper, and pins one line of sched.Stats and
// dram.Stats per mechanism in testdata/name. A change to it is a behaviour
// change: scripts/regen.sh rewrites the fixture, and the same change bumps
// exp.SchemaVersion (scripts/check-schema-bump.sh).
func checkFixedTrace(t *testing.T, name string, paper bool) {
	var got []byte
	for _, kind := range core.Kinds() {
		if paperKinds[kind] != paper {
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			s, d := driveFixedTrace(t, kind, 30_000)
			got = fmt.Appendf(got, "%s sched=%+v dram=%+v\n", kind, s, d)
		})
	}
	if t.Failed() {
		return // a failed drive left its line out; do not pin the rest
	}
	golden.Check(t, filepath.Join("testdata", name), got)
}

// TestGoldenTraceDeterminism guards the harness itself: two identical drives
// must agree, otherwise the fixture would be meaningless.
func TestGoldenTraceDeterminism(t *testing.T) {
	s1, d1 := driveFixedTrace(t, core.KindDSARP, 10_000)
	s2, d2 := driveFixedTrace(t, core.KindDSARP, 10_000)
	if s1 != s2 || d1 != d2 {
		t.Fatalf("fixed trace is not deterministic:\n%v\n%v\n%v\n%v", s1, s2, d1, d2)
	}
}
