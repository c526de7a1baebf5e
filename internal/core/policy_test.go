package core

import (
	"math/rand"
	"testing"

	"dsarp/internal/dram"
	"dsarp/internal/sched"
	"dsarp/internal/timing"
)

// The core tests wire a real device + controller + policy and drive them
// with synthetic demand, then assert on scheduling behavior and the
// retention invariant. The geometry is scaled down (32 rows/bank, 1 row per
// refresh op) so full refresh rotations complete within a short run.

func testGeom() dram.Geometry {
	return dram.Geometry{Ranks: 2, Banks: 8, SubarraysPerBank: 4, RowsPerBank: 32,
		ColumnsPerRow: 8, RowsPerRef: 1}
}

type rig struct {
	dev  *dram.Device
	ctrl *sched.Controller
	tp   timing.Params
	now  int64
	rng  *rand.Rand
	done int
}

func newRig(t *testing.T, k Kind, seed int64) *rig {
	t.Helper()
	tp := timing.DDR3(timing.Config{Density: timing.Gb8, Mode: k.RefMode()})
	dev, err := dram.New(testGeom(), tp, dram.Options{SARP: k.SARP(), Check: true})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := sched.NewController(dev, sched.DefaultConfig())
	ctrl.SetPolicy(New(k, ctrl, seed))
	return &rig{dev: dev, ctrl: ctrl, tp: tp, rng: rand.New(rand.NewSource(seed))}
}

// step advances one cycle, injecting demand with probability loadPct/100.
func (r *rig) step(loadPct int) {
	if r.rng.Intn(100) < loadPct {
		g := r.dev.Geometry()
		a := dram.Addr{
			Rank: r.rng.Intn(g.Ranks),
			Bank: r.rng.Intn(g.Banks),
			Row:  r.rng.Intn(g.RowsPerBank),
			Col:  r.rng.Intn(g.ColumnsPerRow),
		}
		if r.rng.Intn(4) == 0 {
			r.ctrl.EnqueueWrite(&sched.Request{IsWrite: true, Addr: a}, r.now)
		} else {
			r.ctrl.EnqueueRead(&sched.Request{Addr: a, OnComplete: func(int64) { r.done++ }}, r.now)
		}
	}
	r.ctrl.Tick(r.now)
	r.now++
}

func (r *rig) run(cycles int64, loadPct int) {
	for i := int64(0); i < cycles; i++ {
		r.step(loadPct)
	}
}

// rotationCycles is how long one full refresh rotation takes: each bank
// receives one op per 8*tREFIpb, and needs RowsPerBank/RowsPerRef ops.
func (r *rig) rotationCycles() int64 {
	g := r.dev.Geometry()
	return int64(g.RefOpsPerRotation()) * int64(r.tp.TREFIpb) * 8
}

// --- Retention invariant across every mechanism ---

func TestRetentionInvariantAllMechanisms(t *testing.T) {
	for _, k := range Kinds() {
		if k == KindNoRef {
			continue // the ideal baseline intentionally drops refresh
		}
		k := k
		t.Run(k.String(), func(t *testing.T) {
			r := newRig(t, k, 11)
			rotation := r.rotationCycles()
			r.run(2*rotation+int64(r.tp.TREFIab)*16, 40)
			// Allowed gap: one rotation plus the JEDEC 8-refresh
			// postponement slack, plus scheduling latitude of a tREFI.
			maxGap := rotation + 9*int64(r.tp.TREFIab)
			ck := r.dev.Checker()
			if v := ck.VerifyRetention(r.now, maxGap); v != 0 {
				t.Fatalf("%d retention violations (gap > %d): %v", v, maxGap, ck.Err())
			}
			if err := ck.Err(); err != nil {
				t.Fatalf("protocol violations: %v", err)
			}
		})
	}
}

// --- Refresh rate: every mechanism issues the nominal number of ops ---

func TestRefreshRateMatchesNominal(t *testing.T) {
	cases := []struct {
		k Kind
		// op weight: how many REFab-equivalents one command is worth.
		perBank bool
	}{
		{KindREFab, false}, {KindREFpb, true}, {KindElastic, false},
		{KindDARP, true}, {KindSARPpb, true}, {KindDSARP, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.k.String(), func(t *testing.T) {
			r := newRig(t, c.k, 3)
			cycles := int64(r.tp.TREFIab) * 64
			r.run(cycles, 30)
			g := r.dev.Geometry()
			st := r.dev.Stats()
			// Nominal: one REFab per rank per tREFIab, or 8x REFpb.
			wantAB := cycles / int64(r.tp.TREFIab) * int64(g.Ranks)
			got := st.RefABs
			want := wantAB
			if c.perBank {
				got = st.RefPBs
				want = wantAB * int64(g.Banks)
			}
			// Postponement/pull-in flexibility allows +-8 ops per bank.
			slack := int64(16 * g.Ranks * g.Banks)
			if got < want-slack || got > want+slack {
				t.Errorf("refresh ops = %d, want %d +- %d", got, want, slack)
			}
		})
	}
}

// --- REFpb baseline: strict round-robin order ---

func TestPerBankRoundRobinOrder(t *testing.T) {
	r := newRig(t, KindREFpb, 5)
	r.run(int64(r.tp.TREFIab)*4, 50)
	// After N ops the device-internal pointer has advanced N mod banks; the
	// unit's per-bank issued counts can differ by at most one in RR order.
	g := r.dev.Geometry()
	for rank := 0; rank < g.Ranks; rank++ {
		u := r.dev.RefreshUnit(rank)
		hi, lo := int64(0), int64(1<<62)
		for b := 0; b < g.Banks; b++ {
			n := u.Issued(b)
			hi = max(hi, n)
			lo = min(lo, n)
		}
		if hi-lo > 1 {
			t.Errorf("rank %d: round-robin issued counts spread %d..%d", rank, lo, hi)
		}
	}
}

// --- DARP behavior ---

func TestDARPPostponesBusyBankAndCatchesUp(t *testing.T) {
	r := newRig(t, KindDARP, 7)
	// Saturate bank 0 of rank 0 with reads; leave other banks idle.
	g := r.dev.Geometry()
	for i := int64(0); i < int64(r.tp.TREFIab)*20; i++ {
		if i%20 == 0 {
			a := dram.Addr{Bank: 0, Row: r.rng.Intn(g.RowsPerBank), Col: 0}
			r.ctrl.EnqueueRead(&sched.Request{Addr: a}, r.now)
		}
		r.ctrl.Tick(r.now)
		r.now++
	}
	u := r.dev.RefreshUnit(0)
	// Idle banks must not starve, and the busy bank must still be refreshed
	// at a rate within the postponement bound.
	nominal := r.now / (int64(r.tp.TREFIpb) * 8)
	if got := u.Issued(0); got < nominal-9 {
		t.Errorf("busy bank refreshed %d times, nominal %d: postponement bound broken", got, nominal)
	}
	for b := 1; b < g.Banks; b++ {
		if got := u.Issued(b); got < nominal-1 {
			t.Errorf("idle bank %d refreshed %d times, nominal %d", b, got, nominal)
		}
	}
	if err := r.dev.Checker().Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDARPOwedNeverExceedsFlex(t *testing.T) {
	r := newRig(t, KindDARP, 9)
	darp := r.ctrl.Policy().(*DARP)
	g := r.dev.Geometry()
	for i := int64(0); i < 40_000; i++ {
		r.step(80)
		for rank := 0; rank < g.Ranks; rank++ {
			for b := 0; b < g.Banks; b++ {
				if owed := darp.Owed(rank, b, r.now); owed > maxFlex || owed < -maxFlex {
					t.Fatalf("cycle %d: bank %d/%d owed %d outside [-8, 8]", r.now, rank, b, owed)
				}
			}
		}
	}
}

func TestDARPWriteRefreshFiresInWritebackMode(t *testing.T) {
	r := newRig(t, KindDARP, 13)
	g := r.dev.Geometry()
	// Flood writes to force writeback mode, then count refreshes issued
	// while it is active.
	refBefore := r.dev.Stats().RefPBs
	sawWriteMode := false
	for i := 0; i < 30_000; i++ {
		a := dram.Addr{
			Rank: r.rng.Intn(g.Ranks), Bank: r.rng.Intn(g.Banks),
			Row: r.rng.Intn(g.RowsPerBank), Col: r.rng.Intn(g.ColumnsPerRow),
		}
		r.ctrl.EnqueueWrite(&sched.Request{IsWrite: true, Addr: a}, r.now)
		r.ctrl.Tick(r.now)
		r.now++
		sawWriteMode = sawWriteMode || r.ctrl.WriteMode()
	}
	if !sawWriteMode {
		t.Fatal("write flood never triggered writeback mode")
	}
	if r.dev.Stats().RefPBs == refBefore {
		t.Error("write-refresh parallelization issued no refreshes under a write flood")
	}
}

func TestDARPDeterministicForSeed(t *testing.T) {
	run := func() (int64, int64) {
		r := newRig(t, KindDSARP, 21)
		r.run(30_000, 60)
		st := r.dev.Stats()
		return st.Commands, st.RefPBs
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", c1, r1, c2, r2)
	}
}

// --- Elastic ---

func TestElasticPostponesUnderLoadIssuesWhenIdle(t *testing.T) {
	r := newRig(t, KindElastic, 17)
	// Phase 1: heavy load for a few tREFI — elastic should lag the nominal
	// refresh schedule.
	heavy := int64(r.tp.TREFIab) * 6
	r.run(heavy, 95)
	nominal := heavy / int64(r.tp.TREFIab) * 2 // 2 ranks
	lagged := r.dev.Stats().RefABs
	if lagged >= nominal {
		t.Logf("note: elastic did not lag under load (got %d, nominal %d)", lagged, nominal)
	}
	// Phase 2: idle — elastic must catch up completely.
	r.run(int64(r.tp.TREFIab)*10, 0)
	finalNominal := r.now / int64(r.tp.TREFIab) * 2
	if got := r.dev.Stats().RefABs; got < finalNominal-2*8 {
		t.Errorf("elastic never caught up: %d ops, nominal %d", got, finalNominal)
	}
	if err := r.dev.Checker().Err(); err != nil {
		t.Fatal(err)
	}
}

// --- FGR / AR ---

func TestFGRRatesScale(t *testing.T) {
	base := newRig(t, KindREFab, 23)
	two := newRig(t, KindFGR2x, 23)
	cycles := int64(base.tp.TREFIab) * 32
	base.run(cycles, 20)
	two.run(cycles, 20)
	b, tw := base.dev.Stats().RefABs, two.dev.Stats().RefABs
	if tw < b*3/2 {
		t.Errorf("FGR2x issued %d ops vs 1x %d; want ~2x", tw, b)
	}
}

func TestAdaptiveIssuesQuartersUnderLoad(t *testing.T) {
	r := newRig(t, KindAR, 29)
	r.run(int64(r.tp.TREFIab)*40, 90)
	st := r.dev.Stats()
	if st.RefABs == 0 {
		t.Fatal("AR issued no refreshes")
	}
	if err := r.dev.Checker().Err(); err != nil {
		t.Fatal(err)
	}
}

// --- Kind plumbing ---

func TestKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
}

func TestKindProperties(t *testing.T) {
	if !KindDSARP.SARP() || !KindSARPab.SARP() || !KindSARPpb.SARP() {
		t.Error("SARP kinds misreport SARP()")
	}
	if KindDARP.SARP() || KindREFpb.SARP() {
		t.Error("non-SARP kinds misreport SARP()")
	}
	if KindNoRef.RefMode() != timing.RefNone {
		t.Error("NoRef mode")
	}
	if KindDSARP.RefMode() != timing.RefPB {
		t.Error("DSARP should use per-bank timing")
	}
	if KindFGR4x.RefMode() != timing.RefFGR4x {
		t.Error("FGR4x mode")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, k := range Kinds() {
		r := newRig(t, k, 1)
		if got := r.ctrl.Policy().Name(); got != k.String() {
			t.Errorf("policy for %v names itself %q", k, got)
		}
	}
}
