package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/golden"
	"dsarp/internal/sched"
	"dsarp/internal/snap"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// runCheckpointed runs cfg collecting every snapshot, asserts the
// checkpointed Result is byte-identical (SteppedCycles included) to the
// plain run's, and returns the plain result plus the captured snapshots.
func runCheckpointed(t *testing.T, name string, cfg Config, every int64) (Result, []int64, [][]byte) {
	t.Helper()
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: plain run: %v", name, err)
	}
	var cycles []int64
	var snaps [][]byte
	ck, tail, err := RunWithCheckpoints(cfg, every, func(cycle int64, data []byte) {
		cycles = append(cycles, cycle)
		snaps = append(snaps, data)
	})
	if err != nil {
		t.Fatalf("%s: checkpointed run: %v", name, err)
	}
	if tail != nil {
		tail()
	}
	if !reflect.DeepEqual(plain, ck) {
		t.Errorf("%s: checkpointing perturbed the run:\n plain: %+v\n ckpt:  %+v", name, plain, ck)
	}
	if len(snaps) == 0 {
		t.Fatalf("%s: no snapshots captured", name)
	}
	if cycles[0] != cfg.Warmup {
		t.Errorf("%s: first snapshot at cycle %d, want warmup boundary %d", name, cycles[0], cfg.Warmup)
	}
	return plain, cycles, snaps
}

// resumeAll resumes from every captured snapshot and requires each resumed
// Result to be byte-identical to the cold run's — SteppedCycles included
// when the engines match.
func resumeAll(t *testing.T, name string, cfg Config, want Result, cycles []int64, snaps [][]byte) {
	t.Helper()
	for i, data := range snaps {
		got, _, err := ResumeRun(cfg, data, 0, nil)
		if err != nil {
			t.Fatalf("%s: resume from cycle %d: %v", name, cycles[i], err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: resume from cycle %d diverged:\n cold:    %+v\n resumed: %+v",
				name, cycles[i], want, got)
		}
	}
}

// mechanism is a refresh mechanism a resume test runs: a Kind, or a DARP
// variant's policy under KindDARP.
type mechanism struct {
	name   string
	kind   core.Kind
	policy func(*sched.Controller, int64) sched.RefreshPolicy
}

// darpAblations are the exp variants flex16, randpick and greedy, which
// reach the simulator only through Config.Policy.
func darpAblations() []mechanism {
	var mechs []mechanism
	for _, v := range []struct {
		name string
		opts core.DARPOptions
	}{
		{"flex16", core.DARPOptions{WriteRefresh: true, MaxPostpone: 16}},
		{"randpick", core.DARPOptions{WriteRefresh: true, RandomWritePick: true}},
		{"greedy", core.DARPOptions{WriteRefresh: true, GreedyIdlePick: true}},
	} {
		opts := v.opts
		mechs = append(mechs, mechanism{v.name, core.KindDARP, func(ctl *sched.Controller, seed int64) sched.RefreshPolicy {
			return core.NewDARP(ctl, opts, seed)
		}})
	}
	return mechs
}

// TestResumeBitExactAllMechanisms snapshots every mechanism at the warmup
// boundary and at periodic mid-measure checkpoints, resumes from each, and
// requires byte-equal Results — the correctness bar for checkpoint reuse.
// The DARP ablations ride along as three more cases.
func TestResumeBitExactAllMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation resume matrix")
	}
	var mechs []mechanism
	for _, k := range core.Kinds() {
		mechs = append(mechs, mechanism{k.String(), k, nil})
	}
	mechs = append(mechs, darpAblations()...)
	for _, m := range mechs {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Workload:  smallWorkload(),
				Mechanism: m.kind,
				Policy:    m.policy,
				Density:   timing.Gb32,
				Seed:      7,
				Warmup:    8_000,
				Measure:   30_000,
			}
			want, cycles, snaps := runCheckpointed(t, m.name, cfg, 7_000)
			resumeAll(t, m.name, cfg, want, cycles, snaps)
		})
	}
}

// TestResumeWriteMode resumes a write-intensive mix whose controller
// spends cycles draining writes, so checkpoints land while DARP
// parallelizes refreshes with writes (Algorithm 1) and randpick's rng draws
// are snapshotted mid-stream. Two checks keep the case from quietly
// becoming vacuous: every run spends cycles in write mode, and randpick's
// Result differs from plain DARP's.
func TestResumeWriteMode(t *testing.T) {
	if testing.Short() {
		t.Skip("write-mode resume runs")
	}
	wl := workload.Workload{Name: "writes"}
	for _, name := range []string{"lbm.sweep", "stream.triad", "milc.lattice", "gems.fdtd"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wl.Benchmarks = append(wl.Benchmarks, p)
	}
	mechs := append([]mechanism{
		{"DARP", core.KindDARP, nil},
		{"DSARP", core.KindDSARP, nil},
	}, darpAblations()...)
	results := make(map[string]Result, len(mechs))
	var mu sync.Mutex
	t.Run("mechanisms", func(t *testing.T) {
		for _, m := range mechs {
			m := m
			t.Run(m.name, func(t *testing.T) {
				t.Parallel()
				cfg := Config{
					Workload:  wl,
					Mechanism: m.kind,
					Policy:    m.policy,
					Density:   timing.Gb32,
					Seed:      5,
					Warmup:    8_000,
					Measure:   30_000,
				}
				want, cycles, snaps := runCheckpointed(t, m.name, cfg, 3_000)
				resumeAll(t, m.name, cfg, want, cycles, snaps)
				if want.Sched.WriteModeCycles == 0 {
					t.Errorf("%s: no cycle in write mode; the case no longer covers write-refresh", m.name)
				}
				mu.Lock()
				results[m.name] = want
				mu.Unlock()
			})
		}
	})
	darp, ok := results["DARP"]
	if rp, ok2 := results["randpick"]; ok && ok2 && reflect.DeepEqual(darp, rp) {
		t.Error("randpick's Result equals plain DARP's: its random write-mode picks never ran")
	}
}

// TestResumeBitExactSaturated pins resume correctness where the event
// engine leans on its saturation fallback: intensive many-core configs
// whose snapshots routinely land inside blind windows.
func TestResumeBitExactSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("saturated resume runs")
	}
	lib := workload.Library()
	wl := workload.Workload{Name: "sat", Benchmarks: lib[:8]}
	for _, k := range []core.Kind{core.KindDSARP, core.KindDARP, core.KindREFpb} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Workload:  wl,
				Mechanism: k,
				Density:   timing.Gb8,
				Seed:      3,
				Warmup:    6_000,
				Measure:   24_000,
				Channels:  1,
			}
			want, cycles, snaps := runCheckpointed(t, k.String(), cfg, 5_000)
			resumeAll(t, k.String(), cfg, want, cycles, snaps)
		})
	}
}

// TestResumeMidWindowSteppedCycles resumes the service benchmark's specs
// (the five category mixes under the paper's six mechanisms) from every
// mid-window checkpoint and requires the plain run's Result, SteppedCycles
// included. The intervals put checkpoints on cycles where a skip lands:
// such a snapshot is taken just before the skip's uncounted landing step,
// and the resumed run must take that step too rather than probe and count
// a fresh one, or its saturation fallback fires a probe early.
func TestResumeMidWindowSteppedCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("180-resume matrix")
	}
	mechs := []core.Kind{core.KindREFab, core.KindREFpb, core.KindDARP,
		core.KindSARPpb, core.KindDSARP, core.KindNoRef}
	for _, wl := range workload.Mixes(1, 8, 7) {
		for _, k := range mechs {
			name := wl.Name + "/" + k.String()
			cfg := Config{
				Workload:  wl,
				Mechanism: k,
				Density:   timing.Gb32,
				Seed:      1,
				Warmup:    4_000,
				Measure:   16_000,
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, every := range []int64{5_000, 6_000, 8_000} {
					want, cycles, snaps := runCheckpointed(t, name, cfg, every)
					// snaps[0] is the warmup boundary; the rest are mid-window.
					resumeAll(t, fmt.Sprintf("%s every %d", name, every), cfg, want, cycles[1:], snaps[1:])
				}
			})
		}
	}
}

// TestResumeCycleEngine covers the plain stepper: snapshot and resume
// under EngineCycle must be byte-exact too.
func TestResumeCycleEngine(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Engine:    EngineCycle,
		Seed:      11,
		Warmup:    5_000,
		Measure:   15_000,
	}
	want, cycles, snaps := runCheckpointed(t, "cycle", cfg, 4_000)
	resumeAll(t, "cycle", cfg, want, cycles, snaps)
}

// TestResumeCrossEngine snapshots under one engine and restores under the
// other. The machine state is engine-independent, so the Results must
// match up to SteppedCycles (the equivalence-matrix convention).
func TestResumeCrossEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine resume runs")
	}
	base := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      9,
		Warmup:    5_000,
		Measure:   20_000,
	}
	for _, dir := range []struct {
		name     string
		from, to Engine
	}{
		{"event_to_cycle", EngineEvent, EngineCycle},
		{"cycle_to_event", EngineCycle, EngineEvent},
	} {
		dir := dir
		t.Run(dir.name, func(t *testing.T) {
			cfgFrom, cfgTo := base, base
			cfgFrom.Engine, cfgTo.Engine = dir.from, dir.to
			want, err := Run(cfgTo)
			if err != nil {
				t.Fatalf("cold %v run: %v", dir.to, err)
			}
			var snaps [][]byte
			if _, _, err := RunWithCheckpoints(cfgFrom, 8_000, func(_ int64, d []byte) {
				snaps = append(snaps, d)
			}); err != nil {
				t.Fatalf("checkpointed %v run: %v", dir.from, err)
			}
			for i, data := range snaps {
				got, _, err := ResumeRun(cfgTo, data, 0, nil)
				if err != nil {
					t.Fatalf("resume %d: %v", i, err)
				}
				want.SteppedCycles, got.SteppedCycles = 0, 0
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: resume %d diverged:\n cold:    %+v\n resumed: %+v",
						dir.name, i, want, got)
				}
			}
		})
	}
}

// TestResumeMeasureExtension reuses a warmup-boundary snapshot taken under
// a short measurement window for a longer one: the snapshot is agnostic to
// Measure, so the extended resumed run must equal an extended cold run.
func TestResumeMeasureExtension(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDARP,
		Density:   timing.Gb32,
		Seed:      4,
		Warmup:    5_000,
		Measure:   10_000,
	}
	var boundary []byte
	if _, _, err := RunWithCheckpoints(cfg, 0, func(cycle int64, d []byte) {
		if cycle == cfg.Warmup {
			boundary = d
		}
	}); err != nil {
		t.Fatalf("short run: %v", err)
	}
	long := cfg
	long.Measure = 25_000
	want, err := Run(long)
	if err != nil {
		t.Fatalf("cold long run: %v", err)
	}
	got, _, err := ResumeRun(long, boundary, 0, nil)
	if err != nil {
		t.Fatalf("extended resume: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("measure extension diverged:\n cold:    %+v\n resumed: %+v", want, got)
	}
}

// TestResumeExtensionFromWindowEnd resumes a longer-Measure config from
// the window-end snapshot of a shorter run with the same prefix and
// requires the plain long run's Result, SteppedCycles included. The short
// run stops at its window's end, so its engine state there must not
// depend on the stop: a skip's saturation reset is probed past the end,
// and a skip that lands on an event at exactly the end leaves its landing
// step pending in the snapshot. Mixes: the service benchmark's five
// category mixes plus two all-intensive ones; each shape's interval
// divides the short Measure, so the window end is on the grid.
func TestResumeExtensionFromWindowEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("420-resume matrix")
	}
	mechs := []core.Kind{core.KindREFab, core.KindREFpb, core.KindDARP,
		core.KindSARPpb, core.KindDSARP, core.KindNoRef}
	shapes := []struct{ warmup, measure, extended, every int64 }{
		{4_000, 16_000, 24_000, 16_000},
		{4_000, 16_000, 24_000, 8_000},
		{4_000, 15_000, 20_000, 5_000},
		{4_000, 12_000, 30_000, 6_000},
		{3_000, 9_000, 14_000, 3_000},
	}
	mixes := append(workload.Mixes(1, 8, 7), workload.IntensiveMixes(2, 8, 7)...)
	for _, wl := range mixes {
		for _, k := range mechs {
			name := wl.Name + "/" + k.String()
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, eng := range []Engine{EngineEvent, EngineCycle} {
					for _, sh := range shapes {
						short := Config{
							Workload:  wl,
							Mechanism: k,
							Density:   timing.Gb32,
							Engine:    eng,
							Seed:      1,
							Warmup:    sh.warmup,
							Measure:   sh.measure,
						}
						long := short
						long.Measure = sh.extended
						label := fmt.Sprintf("%s %v warmup %d measure %d->%d every %d",
							name, eng, sh.warmup, sh.measure, sh.extended, sh.every)
						var endSnap []byte
						_, tail, err := RunWithCheckpoints(short, sh.every, func(cycle int64, data []byte) {
							if cycle == sh.warmup+sh.measure {
								endSnap = data
							}
						})
						if err != nil {
							t.Fatalf("%s: short run: %v", label, err)
						}
						if tail == nil {
							t.Fatalf("%s: no window-end checkpoint", label)
						}
						if endSnap != nil {
							t.Fatalf("%s: window-end snapshot taken on the caller's path", label)
						}
						tail()
						if endSnap == nil {
							t.Fatalf("%s: tail wrote no window-end snapshot", label)
						}
						want, err := Run(long)
						if err != nil {
							t.Fatalf("%s: plain long run: %v", label, err)
						}
						got, _, err := ResumeRun(long, endSnap, 0, nil)
						if err != nil {
							t.Fatalf("%s: resume: %v", label, err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Errorf("%s: resumed extension diverged:\n plain:   %+v\n resumed: %+v", label, want, got)
						}
					}
				}
			})
		}
	}
}

// TestResumeCheckpointChainEquality requires a resumed run to emit the
// exact snapshot byte streams the cold run emitted after the resume point:
// checkpoint schedules must be identical whether armed cold or on resume.
func TestResumeCheckpointChainEquality(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      2,
		Warmup:    4_000,
		Measure:   20_000,
	}
	const every = 4_500
	var coldCycles []int64
	var coldSnaps [][]byte
	if _, _, err := RunWithCheckpoints(cfg, every, func(c int64, d []byte) {
		coldCycles = append(coldCycles, c)
		coldSnaps = append(coldSnaps, d)
	}); err != nil {
		t.Fatal(err)
	}
	if len(coldSnaps) < 3 {
		t.Fatalf("want >= 3 checkpoints, got %d at %v", len(coldSnaps), coldCycles)
	}
	var resCycles []int64
	var resSnaps [][]byte
	if _, _, err := ResumeRun(cfg, coldSnaps[1], every, func(c int64, d []byte) {
		resCycles = append(resCycles, c)
		resSnaps = append(resSnaps, d)
	}); err != nil {
		t.Fatal(err)
	}
	wantCycles := coldCycles[2:]
	if !reflect.DeepEqual(resCycles, wantCycles) {
		t.Fatalf("resumed checkpoint cycles %v, cold emitted %v", resCycles, wantCycles)
	}
	for i := range resSnaps {
		if !bytes.Equal(resSnaps[i], coldSnaps[2+i]) {
			t.Errorf("checkpoint at cycle %d differs between cold and resumed run", resCycles[i])
		}
	}
}

// TestResumeFuzzRandomCycle snapshots at a random mid-measure cycle
// (exercising arbitrary engine positions, blind windows included) by
// scheduling a one-off checkpoint there, then diffs the resumed Result
// against the cold run's.
func TestResumeFuzzRandomCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz resume runs")
	}
	rng := rand.New(rand.NewSource(20260807))
	kinds := core.Kinds()
	for i := 0; i < 8; i++ {
		cores := 2 + rng.Intn(7)
		var wl workload.Workload
		if rng.Intn(2) == 0 {
			wl = workload.IntensiveMixes(1, cores, rng.Int63())[0]
		} else {
			wl = workload.Mixes(1, cores, rng.Int63())[0]
		}
		k := kinds[rng.Intn(len(kinds))]
		seed := rng.Int63n(1 << 20)
		cfg := Config{
			Workload:  wl,
			Mechanism: k,
			Density:   timing.Gb32,
			Seed:      seed,
			Warmup:    5_000,
			Measure:   20_000,
		}
		// A prime-ish random interval puts the first mid-measure checkpoint
		// at an arbitrary engine position.
		every := 3_000 + rng.Int63n(9_000)
		name := fmt.Sprintf("draw%d_%s_%s_seed%d_every%d", i, k, wl.Name, seed, every)
		t.Run(name, func(t *testing.T) {
			want, cycles, snaps := runCheckpointed(t, name, cfg, every)
			// Resume only from the last (deepest) snapshot: the full matrix
			// is covered by the dedicated tests above.
			resumeAll(t, name, cfg, want, cycles[len(cycles)-1:], snaps[len(snaps)-1:])
		})
	}
}

// TestRestoreRefusesMismatch pins the refusal paths: corrupt payloads,
// version skew, checked configs, and wrong-shape configs never restore.
func TestRestoreRefusesMismatch(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindREFab,
		Density:   timing.Gb32,
		Seed:      1,
		Warmup:    2_000,
		Measure:   4_000,
	}
	var boundary []byte
	if _, _, err := RunWithCheckpoints(cfg, 0, func(_ int64, d []byte) { boundary = d }); err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreSystem(cfg, boundary); err != nil {
		t.Fatalf("clean restore failed: %v", err)
	}

	checked := cfg
	checked.Check = true
	if _, err := RestoreSystem(checked, boundary); err == nil {
		t.Error("restore into a checked config must be refused")
	}

	bad := append([]byte(nil), boundary...)
	bad[len(bad)-1] ^= 0xff
	if _, err := RestoreSystem(cfg, bad); err == nil {
		t.Error("corrupt payload must be refused")
	}

	// Version skew: rewrite the header's version string in place.
	skewed := bytes.Replace(boundary, []byte(snap.Version), []byte("dsarp-snap-v0"), 1)
	if _, err := RestoreSystem(cfg, skewed); err == nil {
		t.Error("version-skewed snapshot must be refused")
	} else if !isVersionErr(err) {
		t.Errorf("version skew reported as %v, want snap.ErrVersion", err)
	}

	wrongShape := cfg
	wrongShape.Channels = 1
	if _, err := RestoreSystem(wrongShape, boundary); err == nil {
		t.Error("wrong-shape config must be refused")
	}
}

func isVersionErr(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == snap.ErrVersion {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestCanSnapshot pins the one configuration that cannot snapshot, a
// checked run: checkpointing it fails loudly before any snapshot is taken,
// while the same run without a sink still completes.
func TestCanSnapshot(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindREFab,
		Density:   timing.Gb32,
		Seed:      1,
		Warmup:    1_000,
		Measure:   2_000,
		Check:     true,
	}
	fired := false
	_, tail, err := RunWithCheckpoints(cfg, 500, func(int64, []byte) { fired = true })
	if err == nil {
		t.Error("checkpointing a checked run must fail")
	}
	if fired || tail != nil {
		t.Error("checked run must not emit snapshots")
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.CanSnapshot() {
		t.Error("CanSnapshot true for a checked system")
	}
	if res, err := Run(cfg); err != nil || res.CheckErr != nil {
		t.Errorf("checked run without a sink: err %v, check %v", err, res.CheckErr)
	}
}

// TestSnapshotBytesTrackValidLines bounds snapshot size on 8-core systems
// (4 MB of modelled LLC, 65,536 lines): fresh, and at a 4k-cycle warmup
// boundary where only a few percent of the lines are valid. Slices write
// only their valid lines, so the size follows the touched footprint; a
// dense tag-store layout (1.25 MB for either) fails here as a byte count.
func TestSnapshotBytesTrackValidLines(t *testing.T) {
	const freshCeiling, warmCeiling = 16 << 10, 128 << 10
	for _, wl := range workload.Mixes(1, 8, 7) {
		s, err := NewSystem(Config{
			Workload:  wl,
			Mechanism: core.KindDSARP,
			Density:   timing.Gb32,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(s.Snapshot()); n > freshCeiling {
			t.Errorf("%s: fresh snapshot is %d bytes, ceiling %d", wl.Name, n, freshCeiling)
		}
		s.RunTo(4_000)
		if n := len(s.Snapshot()); n > warmCeiling {
			t.Errorf("%s: snapshot at cycle 4000 is %d bytes, ceiling %d", wl.Name, n, warmCeiling)
		}
	}
}

// BenchmarkSnapshotRoundTrip measures the serialize+restore cost of a
// warmed-up DSARP system — the per-checkpoint overhead a resumable run
// pays on top of simulation proper.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      7,
		Warmup:    8_000,
		Measure:   30_000,
	}
	cfg = cfg.WithDefaults()
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.RunTo(cfg.Warmup)
	data := s.Snapshot()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data = s.Snapshot()
		if _, err := RestoreSystem(cfg, data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGoldenSnapshotBytes pins the snapshot container byte-for-byte
// against testdata/golden.snap: the same discipline the golden tables
// apply to simulator behavior, applied to the snapshot layout. If this
// fails, the serialized layout (or the simulated state it captures)
// changed: regenerate the fixture with scripts/regen.sh AND bump
// snap.Version in the same change, or every warm store's snapshots would
// restore into a machine they no longer describe.
// scripts/check-schema-bump.sh fails CI when the fixture changes without
// the version bump.
func TestGoldenSnapshotBytes(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      7,
		Warmup:    8_000,
		Measure:   30_000,
	}
	cfg = cfg.WithDefaults()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(cfg.Warmup)
	got := s.Snapshot()

	golden.Check(t, filepath.Join("testdata", "golden.snap"), got)
	// The pinned fixture must keep restoring: layout stability is only
	// useful if old snapshots actually load. Once Check passes, got is
	// the fixture's bytes.
	if _, err := RestoreSystem(cfg, got); err != nil {
		t.Fatalf("golden snapshot no longer restores: %v", err)
	}
}
