package sched_test

// Golden pinning of the controller's observable behavior. The fixed request
// trace below was run against the pre-index (seed) controller and its final
// Stats recorded; the indexed FR-FCFS controller must reproduce them exactly,
// for every refresh mechanism (including the SARP device paths, where ACT
// legality depends on the requested row's subarray).
//
// One deliberate regeneration: the seed accounted a forwarded read's latency
// as Done - 0 (Arrive was never set), inflating ReadLatencySum by roughly
// the current cycle per forward. The fix sets Arrive at the forwarding
// enqueue, so every ReadLatencySum below was re-recorded; all other fields
// are bit-identical to the seed controller's.

import (
	"math/rand"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/dram"
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

func TestGoldenFixedTraceStats(t *testing.T) {
	type golden struct {
		sched sched.Stats
		dram  dram.Stats
	}
	want := map[core.Kind]golden{
		core.KindNoRef: {
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1057, ReadLatencySum: 123684, WriteLatencySum: 767546, DemandSlots: 7493, ForwardedReads: 31, MergedWrites: 10, WriteModeEntries: 30, WriteModeCycles: 2562, OpportunisticDrain: 2399},
			dram:  dram.Stats{Commands: 7493, Acts: 3694, Pres: 3694, Reads: 2104, Writes: 1057},
		},
		core.KindREFab: {
			sched: sched.Stats{ReadsServed: 2074, WritesServed: 1057, ReadLatencySum: 478780, WriteLatencySum: 818139, DemandSlots: 6580, RefreshSlots: 23, ForwardedReads: 28, MergedWrites: 10, ReadQueueFullStalls: 61, WriteModeEntries: 41, WriteModeCycles: 5795, OpportunisticDrain: 525},
			dram:  dram.Stats{Commands: 6647, Acts: 3211, Pres: 3211, Reads: 2046, Writes: 1057, RefABs: 23},
		},
		core.KindREFpb: {
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1059, ReadLatencySum: 182404, WriteLatencySum: 805357, DemandSlots: 6829, RefreshSlots: 184, ForwardedReads: 27, MergedWrites: 8, WriteModeEntries: 46, WriteModeCycles: 4093, OpportunisticDrain: 518},
			dram:  dram.Stats{Commands: 7049, Acts: 3371, Pres: 3371, Reads: 2108, Writes: 1059, RefPBs: 184},
		},
		core.KindElastic: {
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1057, ReadLatencySum: 137507, WriteLatencySum: 784615, DemandSlots: 7476, RefreshSlots: 23, ForwardedReads: 31, MergedWrites: 10, WriteModeEntries: 30, WriteModeCycles: 2580, OpportunisticDrain: 2374},
			dram:  dram.Stats{Commands: 7502, Acts: 3686, Pres: 3686, Reads: 2104, Writes: 1057, RefABs: 23},
		},
		core.KindDARP: {
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1058, ReadLatencySum: 154550, WriteLatencySum: 794358, DemandSlots: 6903, RefreshSlots: 194, ForwardedReads: 33, MergedWrites: 9, WriteModeEntries: 42, WriteModeCycles: 3778, OpportunisticDrain: 890},
			dram:  dram.Stats{Commands: 7097, Acts: 3390, Pres: 3390, Reads: 2102, Writes: 1058, RefPBs: 194},
		},
		core.KindSARPpb: {
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1059, ReadLatencySum: 156995, WriteLatencySum: 795245, DemandSlots: 6931, RefreshSlots: 184, ForwardedReads: 31, MergedWrites: 8, WriteModeEntries: 43, WriteModeCycles: 3789, OpportunisticDrain: 896},
			dram:  dram.Stats{Commands: 7137, Acts: 3419, Pres: 3419, Reads: 2104, Writes: 1059, RefPBs: 184},
		},
		core.KindDSARP: {
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1059, ReadLatencySum: 144192, WriteLatencySum: 787379, DemandSlots: 7106, RefreshSlots: 202, ForwardedReads: 28, MergedWrites: 8, WriteModeEntries: 40, WriteModeCycles: 3508, OpportunisticDrain: 1281},
			dram:  dram.Stats{Commands: 7308, Acts: 3501, Pres: 3501, Reads: 2107, Writes: 1059, RefPBs: 202},
		},
	}

	for kind, g := range want {
		kind, g := kind, g
		t.Run(kind.String(), func(t *testing.T) {
			gotSched, gotDRAM := driveFixedTrace(t, kind, 30_000)
			if gotSched != g.sched {
				t.Errorf("sched.Stats diverged from seed controller:\n got  %#v\n want %#v", gotSched, g.sched)
			}
			if gotDRAM != g.dram {
				t.Errorf("dram.Stats diverged from seed controller:\n got  %#v\n want %#v", gotDRAM, g.dram)
			}
			if t.Failed() {
				// Machine-readable actuals, for regenerating the goldens when
				// behavior changes intentionally.
				t.Logf("golden: {sched: sched.Stats%#v, dram: dram.Stats%#v},", gotSched, gotDRAM)
			}
		})
	}
}

// TestGoldenFixedTraceStatsExtended pins the remaining mechanisms — the
// §6.1.2 breakdown configuration, SARPab, the DDR4 baselines, and refresh
// pausing — the same way.
func TestGoldenFixedTraceStatsExtended(t *testing.T) {
	type golden struct {
		kind  core.Kind
		sched sched.Stats
		dram  dram.Stats
	}
	want := map[string]golden{
		"DARPOoO": {kind: core.KindDARPOoO,
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1057, ReadLatencySum: 151560, WriteLatencySum: 784130, DemandSlots: 7069, RefreshSlots: 178, ForwardedReads: 28, MergedWrites: 10, WriteModeEntries: 42, WriteModeCycles: 3638, OpportunisticDrain: 1048},
			dram:  dram.Stats{Commands: 7247, Acts: 3481, Pres: 3481, Reads: 2107, Writes: 1057, RefPBs: 178}},
		"SARPab": {kind: core.KindSARPab,
			sched: sched.Stats{ReadsServed: 2101, WritesServed: 1058, ReadLatencySum: 321677, WriteLatencySum: 797667, DemandSlots: 6783, RefreshSlots: 23, ForwardedReads: 26, MergedWrites: 9, ReadQueueFullStalls: 34, WriteModeEntries: 40, WriteModeCycles: 4116, OpportunisticDrain: 1018},
			dram:  dram.Stats{Commands: 6832, Acts: 3327, Pres: 3327, Reads: 2075, Writes: 1058, RefABs: 23}},
		"FGR2x": {kind: core.KindFGR2x,
			sched: sched.Stats{ReadsServed: 2132, WritesServed: 1058, ReadLatencySum: 521224, WriteLatencySum: 814987, DemandSlots: 6527, RefreshSlots: 46, ForwardedReads: 28, MergedWrites: 9, ReadQueueFullStalls: 3, WriteModeEntries: 43, WriteModeCycles: 5304, OpportunisticDrain: 755},
			dram:  dram.Stats{Commands: 6682, Acts: 3211, Pres: 3211, Reads: 2104, Writes: 1058, RefABs: 46}},
		"FGR4x": {kind: core.KindFGR4x,
			sched: sched.Stats{ReadsServed: 1478, WritesServed: 1055, ReadLatencySum: 1077078, WriteLatencySum: 857413, DemandSlots: 5023, RefreshSlots: 92, ForwardedReads: 32, MergedWrites: 12, ReadQueueFullStalls: 657, WriteModeEntries: 32, WriteModeCycles: 8882, OpportunisticDrain: 564},
			dram:  dram.Stats{Commands: 5190, Acts: 2436, Pres: 2436, Reads: 1446, Writes: 1055, RefABs: 92}},
		"AR": {kind: core.KindAR,
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1057, ReadLatencySum: 164353, WriteLatencySum: 837016, DemandSlots: 7476, RefreshSlots: 29, ForwardedReads: 31, MergedWrites: 10, WriteModeEntries: 30, WriteModeCycles: 2580, OpportunisticDrain: 3241},
			dram:  dram.Stats{Commands: 7508, Acts: 3686, Pres: 3686, Reads: 2104, Writes: 1057, RefABs: 29}},
		"Pause": {kind: core.KindPause,
			sched: sched.Stats{ReadsServed: 2135, WritesServed: 1057, ReadLatencySum: 123684, WriteLatencySum: 767546, DemandSlots: 7493, RefreshSlots: 45, ForwardedReads: 31, MergedWrites: 10, WriteModeEntries: 30, WriteModeCycles: 2562, OpportunisticDrain: 2399},
			dram:  dram.Stats{Commands: 7538, Acts: 3694, Pres: 3694, Reads: 2104, Writes: 1057, RefABs: 45}},
	}

	for name, g := range want {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			gotSched, gotDRAM := driveFixedTrace(t, g.kind, 30_000)
			if gotSched != g.sched {
				t.Errorf("sched.Stats diverged from seed controller:\n got  %#v\n want %#v", gotSched, g.sched)
			}
			if gotDRAM != g.dram {
				t.Errorf("dram.Stats diverged from seed controller:\n got  %#v\n want %#v", gotDRAM, g.dram)
			}
			if t.Failed() {
				t.Logf("golden %s: sched.Stats%#v dram.Stats%#v", name, gotSched, gotDRAM)
			}
		})
	}
}

// TestGoldenTraceDeterminism guards the harness itself: two identical drives
// must agree, otherwise the goldens above would be meaningless.
func TestGoldenTraceDeterminism(t *testing.T) {
	s1, d1 := driveFixedTrace(t, core.KindDSARP, 10_000)
	s2, d2 := driveFixedTrace(t, core.KindDSARP, 10_000)
	if s1 != s2 || d1 != d2 {
		t.Fatalf("fixed trace is not deterministic:\n%v\n%v\n%v\n%v", s1, s2, d1, d2)
	}
}
