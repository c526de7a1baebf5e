package exp

import (
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/store"
	"dsarp/internal/timing"
)

func checkpointOpts(t *testing.T) Options {
	opts := tinyOpts()
	opts.Store = openStore(t)
	opts.Checkpoints = true
	opts.CheckpointEvery = 10_000
	return opts
}

// corruptSnapshot flips one payload byte of a stored snapshot and rewrites
// it through the store, so the store's own envelope verifies and the snap
// container must catch the damage.
func corruptSnapshot(t *testing.T, st *store.Store, pkey store.Key) {
	t.Helper()
	data, ok := st.GetKind(pkey, store.KindSnapshot)
	if !ok {
		t.Fatal("snapshot to corrupt is missing")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x01
	if err := st.PutKind(pkey, store.KindSnapshot, bad); err != nil {
		t.Fatal(err)
	}
}

// ckptRunner builds a runner whose write-behind store writes are waited
// for before the test's store directory is removed.
func ckptRunner(t *testing.T, opts Options) *Runner {
	r := NewRunner(opts)
	t.Cleanup(r.WaitWrites)
	return r
}

// dropResultEntry removes a result from the store so the compute path runs
// again while the snapshot namespace stays warm.
func dropResultEntry(t *testing.T, st *store.Store, key store.Key) {
	t.Helper()
	if _, ok := st.Get(key); !ok {
		t.Fatal("result entry missing before drop")
	}
	if err := os.Remove(st.EntryPath(key)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("result entry still served after drop")
	}
}

// TestCheckpointWriteAndSelfResume: a cold checkpointed run persists its
// warmup-boundary and periodic snapshots; a fresh runner over the same
// store resumes the identical spec from the deepest one and produces a
// bit-identical result while skipping the shared prefix.
func TestCheckpointWriteAndSelfResume(t *testing.T) {
	opts := checkpointOpts(t)
	cold := ckptRunner(t, opts)
	wl := cold.Mixes()[0]
	spec := cold.specFor(wl, core.KindDSARP, timing.Gb8, "")
	want, info, err := cold.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceComputed || info.ResumedFrom != 0 {
		t.Fatalf("cold run info = %+v", info)
	}
	// Warmup boundary at 10k plus periodic snapshots at 20k, 30k, 40k and
	// the window's last cycle, 50k, all stored behind the call.
	cold.WaitWrites()
	if n := cold.CheckpointsWritten(); n != 5 {
		t.Errorf("CheckpointsWritten = %d, want 5", n)
	}
	if cold.CheckpointBytesWritten() <= 0 {
		t.Error("no snapshot bytes accounted")
	}
	if st := opts.Store.Stats(); st.SnapshotEntries != 5 {
		t.Errorf("store snapshot entries = %d, want 5", st.SnapshotEntries)
	}

	// The result itself is on disk, so a rerun is a plain store hit.
	warm := ckptRunner(t, opts)
	got, winfo, err := warm.RunSpecInfo(spec)
	if err != nil || winfo.Source != SourceStore {
		t.Fatalf("warm result lookup: %+v, %v", winfo, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("store-served result diverged")
	}

	// Force the compute path by removing only the result entry: the
	// simulation must restart from the deepest snapshot, not cycle 0. The
	// probes stay strictly inside the window, so that is 40k, not the
	// window-end snapshot.
	fresh := ckptRunner(t, opts)
	dropResultEntry(t, opts.Store, spec.Key())
	got, info, err = fresh.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceComputed {
		t.Fatalf("source = %v, want computed", info.Source)
	}
	if deepest := spec.Warmup + 3*opts.CheckpointEvery; info.ResumedFrom != deepest {
		t.Errorf("resumed from cycle %d, want deepest checkpoint %d", info.ResumedFrom, deepest)
	}
	if n := fresh.CheckpointsRestored(); n != 1 {
		t.Errorf("CheckpointsRestored = %d, want 1", n)
	}
	if fresh.CheckpointBytesRestored() <= 0 {
		t.Error("no restored snapshot bytes accounted")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed result diverged:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestCheckpointMeasureExtension: a short-measure run's snapshots
// accelerate a longer-measure rerun of the otherwise-identical spec — the
// prefix key zeroes Measure — which resumes where the short run ended,
// and the extended result is bit-identical to a cold extended run.
func TestCheckpointMeasureExtension(t *testing.T) {
	opts := checkpointOpts(t)
	short := ckptRunner(t, opts)
	wl := short.Mixes()[0]
	shortSpec := short.specFor(wl, core.KindREFpb, timing.Gb8, "")
	if _, _, err := short.RunSpecInfo(shortSpec); err != nil {
		t.Fatal(err)
	}
	short.WaitWrites()
	if short.CheckpointsWritten() == 0 {
		t.Fatal("short run wrote no snapshots")
	}

	longSpec := shortSpec
	longSpec.Measure = shortSpec.Measure + 30_000

	// Cold reference for the long window, computed checkpoint-free.
	coldRef, info, err := NewRunner(tinyOpts()).RunSpecInfo(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 0 {
		t.Fatalf("checkpoint-free runner resumed from %d", info.ResumedFrom)
	}

	long := ckptRunner(t, opts)
	got, info, err := long.RunSpecInfo(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceComputed {
		t.Fatalf("source = %v, want computed (different Measure, different result key)", info.Source)
	}
	if end := shortSpec.Warmup + shortSpec.Measure; info.ResumedFrom != end {
		t.Errorf("resumed from %d, want the short run's window end %d", info.ResumedFrom, end)
	}
	if !reflect.DeepEqual(coldRef, got) {
		t.Errorf("measure-extension result diverged from cold long run:\n got:  %+v\n want: %+v", got, coldRef)
	}
}

// TestCheckpointSurvivesWatchdogAbort: a watchdog-aborted run leaves the
// store's snapshots behind, so the retry resumes mid-run instead of from
// cycle 0 — the "lose only the tail" contract behind fleet retries.
func TestCheckpointSurvivesWatchdogAbort(t *testing.T) {
	opts := checkpointOpts(t)
	healthy := ckptRunner(t, opts)
	wl := healthy.Mixes()[0]
	spec := healthy.specFor(wl, core.KindREFab, timing.Gb8, "")
	if _, _, err := healthy.RunSpecInfo(spec); err != nil {
		t.Fatal(err)
	}
	healthy.WaitWrites()

	// A measure-extended rerun under a vanishing budget: it resumes from
	// the short run's snapshots, then the watchdog kills it long before
	// the 2M-cycle window completes.
	longSpec := spec
	longSpec.Measure = 2_000_000
	abortOpts := opts
	abortOpts.SimTimeout = time.Nanosecond
	aborting := ckptRunner(t, abortOpts)
	if _, _, err := aborting.RunSpecInfo(longSpec); !errors.Is(err, ErrSimTimeout) {
		t.Fatalf("vanishing budget = %v, want ErrSimTimeout", err)
	}
	if _, ok := opts.Store.Get(longSpec.Key()); ok {
		t.Fatal("aborted run leaked a result into the store")
	}

	// The retry (a tractable extension of the same prefix) resumes from
	// whatever checkpoints survive — at least the healthy run's — instead
	// of restarting at cycle 0, and stays bit-exact against a cold run.
	retrySpec := spec
	retrySpec.Measure = 100_000
	want, _, err := NewRunner(tinyOpts()).RunSpecInfo(retrySpec)
	if err != nil {
		t.Fatal(err)
	}
	retry := ckptRunner(t, opts)
	got, info, err := retry.RunSpecInfo(retrySpec)
	if err != nil {
		t.Fatal(err)
	}
	if end := spec.Warmup + spec.Measure; info.ResumedFrom < end {
		t.Errorf("retry resumed from %d; the healthy run's deepest checkpoint, its window end %d, should have survived",
			info.ResumedFrom, end)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("retried result diverged from a cold run")
	}
}

// TestCheckpointFallsBackOnCorruptSnapshot: a damaged snapshot entry is
// skipped in favor of the next-deepest intact one — never an error, never
// a wrong result.
func TestCheckpointFallsBackOnCorruptSnapshot(t *testing.T) {
	opts := checkpointOpts(t)
	r1 := ckptRunner(t, opts)
	wl := r1.Mixes()[0]
	spec := r1.specFor(wl, core.KindElastic, timing.Gb8, "")
	want, _, err := r1.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1.WaitWrites()

	// Corrupt the deepest snapshot the self-resume probes.
	corruptSnapshot(t, opts.Store, spec.PrefixKey(spec.Warmup+3*opts.CheckpointEvery))

	r2 := ckptRunner(t, opts)
	dropResultEntry(t, opts.Store, spec.Key())
	got, info, err := r2.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if next := spec.Warmup + 2*opts.CheckpointEvery; info.ResumedFrom != next {
		t.Errorf("resumed from %d, want the next-deepest intact checkpoint %d",
			info.ResumedFrom, next)
	}
	if n := r2.CheckpointsRejected(); n != 1 || len(info.Rejected) != 1 {
		t.Errorf("CheckpointsRejected = %d, RunInfo.Rejected = %v; want the one corrupt snapshot", n, info.Rejected)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fallback result diverged")
	}
}

// TestCorruptWindowEndFallsBackToWarmup: a measure extension whose only
// deeper entry point, the shorter run's window-end snapshot, is corrupt
// falls back to the warmup boundary, counts the rejection, and still
// produces the cold run's Result.
func TestCorruptWindowEndFallsBackToWarmup(t *testing.T) {
	opts := checkpointOpts(t)
	opts.CheckpointEvery = opts.Measure // grid: warmup boundary and window end
	short := ckptRunner(t, opts)
	spec := short.specFor(short.Mixes()[0], core.KindDSARP, timing.Gb8, "")
	if _, _, err := short.RunSpecInfo(spec); err != nil {
		t.Fatal(err)
	}
	short.WaitWrites()
	if n := short.CheckpointsWritten(); n != 2 {
		t.Fatalf("short run wrote %d snapshots, want warmup boundary and window end", n)
	}

	corruptSnapshot(t, opts.Store, spec.PrefixKey(spec.Warmup+spec.Measure))

	longSpec := spec
	longSpec.Measure = spec.Measure + 30_000
	want, _, err := NewRunner(tinyOpts()).RunSpecInfo(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	long := ckptRunner(t, opts)
	got, info, err := long.RunSpecInfo(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != spec.Warmup {
		t.Errorf("resumed from %d, want the warmup boundary %d", info.ResumedFrom, spec.Warmup)
	}
	if n := long.CheckpointsRejected(); n != 1 {
		t.Errorf("CheckpointsRejected = %d, want 1", n)
	}
	if len(info.Rejected) != 1 {
		t.Errorf("RunInfo.Rejected = %v, want the window-end snapshot", info.Rejected)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fallback result diverged from a cold run")
	}
}

// TestPrefixKeySharing pins the exact-mode sharing rule: only Measure is
// outside the prefix hash; every other field (and the snapshot cycle)
// changes the key.
func TestPrefixKeySharing(t *testing.T) {
	r := NewRunner(tinyOpts())
	wl := r.Mixes()[0]
	base := r.specFor(wl, core.KindDSARP, timing.Gb8, "")

	other := base
	other.Measure = base.Measure * 3
	if base.PrefixKey(10_000) != other.PrefixKey(10_000) {
		t.Error("Measure change altered the prefix key; measure-extension sharing broken")
	}
	if base.Key() == other.Key() {
		t.Error("Measure change did not alter the result key")
	}
	if base.PrefixKey(10_000) == base.PrefixKey(20_000) {
		t.Error("cycle not folded into the prefix key")
	}
	if base.PrefixKey(10_000) == base.Key() {
		t.Error("prefix key collided with the result key")
	}
	for name, mut := range map[string]func(*SimSpec){
		"mech":    func(s *SimSpec) { s.Mechanism = core.KindREFab.String() },
		"density": func(s *SimSpec) { s.DensityGb = 32 },
		"variant": func(s *SimSpec) { s.Variant = "subs16" },
		"seed":    func(s *SimSpec) { s.Seed++ },
		"warmup":  func(s *SimSpec) { s.Warmup++ },
		"engine":  func(s *SimSpec) { s.Engine = "cycle" },
	} {
		spec := base
		mut(&spec)
		if spec.PrefixKey(10_000) == base.PrefixKey(10_000) {
			t.Errorf("%s change did not alter the prefix key", name)
		}
	}
}
