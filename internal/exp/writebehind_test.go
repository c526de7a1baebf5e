package exp

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/store"
	"dsarp/internal/timing"
)

// heldStore opens a store whose writes block until release is called.
func heldStore(t *testing.T) (st *store.Store, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	st, err := store.Open(t.TempDir(), store.Options{FailWrites: func() error {
		<-gate
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return st, release
}

// slowStore opens a store whose every write first sleeps for d, so that a
// write still lands well after the call that queued it has returned.
func slowStore(t *testing.T, d time.Duration) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{FailWrites: func() error {
		time.Sleep(d)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func cachedResults(r *Runner) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// TestWriteBehindRepeatIsMemoryHit: a computed result is returned before
// its store write lands; a repeat request meanwhile is a memory hit that
// carries the same pending handle, never a recompute. Once the handle
// completes, an ephemeral runner has let go of the result and a fresh
// runner over the store finds it there.
func TestWriteBehindRepeatIsMemoryHit(t *testing.T) {
	st, release := heldStore(t)
	opts := tinyOpts()
	opts.Store = st
	opts.EphemeralResults = true
	r := NewRunner(opts)
	t.Cleanup(func() {
		release() // a failed test must not strand the held write
		r.WaitWrites()
	})
	spec := r.specFor(r.Mixes()[0], core.KindREFab, timing.Gb8, "")

	first, info, err := r.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceComputed || info.Writes.done == nil {
		t.Fatalf("first call: source %v, handle %v; want a computed result with a pending write", info.Source, info.Writes)
	}
	select {
	case <-info.Writes.done:
		t.Fatal("handle completed while the store held its write back")
	default:
	}
	got, again, err := r.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != SourceMemory || again.Writes != info.Writes {
		t.Errorf("repeat call: source %v, same handle %v; want a memory hit carrying the pending write",
			again.Source, again.Writes == info.Writes)
	}
	if n := r.SimsRun(); n != 1 {
		t.Errorf("SimsRun = %d, want 1", n)
	}
	if !reflect.DeepEqual(first, got) {
		t.Error("memory hit diverged from the computed result")
	}

	release()
	again.Writes.Wait()
	if n := cachedResults(r); n != 0 {
		t.Errorf("ephemeral runner holds %d results once the write landed, want 0", n)
	}
	fresh := NewRunner(opts)
	stored, finfo, err := fresh.RunSpecInfo(spec)
	if err != nil || finfo.Source != SourceStore {
		t.Fatalf("fresh runner: source %v err %v, want a store hit", finfo.Source, err)
	}
	if !reflect.DeepEqual(first, stored) {
		t.Error("stored result diverged from the computed one")
	}
	if finfo.Writes.done != nil {
		t.Error("a store hit carries a write handle; it wrote nothing")
	}
}

// TestWriteBehindCheckpointsResume: the snapshots a run hands its write
// queue are all in the store after WaitWrites, however slow the store,
// and a fresh runner extending the window resumes from the last of them.
func TestWriteBehindCheckpointsResume(t *testing.T) {
	opts := checkpointOpts(t)
	opts.Store = slowStore(t, 20*time.Millisecond)
	r := ckptRunner(t, opts)
	spec := r.specFor(r.Mixes()[0], core.KindDARP, timing.Gb8, "")
	if _, _, err := r.RunSpecInfo(spec); err != nil {
		t.Fatal(err)
	}
	r.WaitWrites()
	// Warmup boundary, 20k, 30k, 40k and the window end at 50k.
	if n := opts.Store.Stats().SnapshotEntries; n != 5 || r.CheckpointsWritten() != 5 {
		t.Fatalf("after WaitWrites: %d snapshot entries, %d written; want 5 and 5", n, r.CheckpointsWritten())
	}
	if !opts.Store.Contains(spec.Key()) {
		t.Fatal("result missing from the store after WaitWrites")
	}

	long := spec
	long.Measure += 20_000
	want, _, err := NewRunner(tinyOpts()).RunSpecInfo(long)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := ckptRunner(t, opts).RunSpecInfo(long)
	if err != nil {
		t.Fatal(err)
	}
	if end := spec.Warmup + spec.Measure; info.ResumedFrom != end {
		t.Errorf("resumed from %d, want the first run's window end %d", info.ResumedFrom, end)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("resumed result diverged from a cold run")
	}
}

// TestWriteBehindFailedWriteStaysInMemory: when every store write fails,
// the handle still completes, the failure is counted, and even an
// ephemeral runner keeps the result in memory, so a repeat is served
// without recomputing.
func TestWriteBehindFailedWriteStaysInMemory(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{FailWrites: func() error {
		return errors.New("injected disk failure")
	}})
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts()
	opts.Store = st
	opts.EphemeralResults = true
	r := NewRunner(opts)
	spec := r.specFor(r.Mixes()[0], core.KindREFpb, timing.Gb8, "")
	first, info, err := r.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	info.Writes.Wait()
	if n := r.StoreErrs(); n != 1 {
		t.Errorf("StoreErrs = %d, want 1", n)
	}
	got, again, err := r.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != SourceMemory || r.SimsRun() != 1 {
		t.Errorf("repeat: source %v, SimsRun %d; want a memory hit and 1", again.Source, r.SimsRun())
	}
	if !reflect.DeepEqual(first, got) {
		t.Error("memory hit diverged from the computed result")
	}
}

// TestWriteBehindConcurrent: eight goroutines request overlapping specs
// from one checkpointing, ephemeral runner over a slow store, then each
// calls WaitWrites. Every spec is simulated exactly once, every result
// matches a plain run, and once the writes are done every result and
// snapshot is in the store and none is left in memory.
func TestWriteBehindConcurrent(t *testing.T) {
	opts := checkpointOpts(t)
	opts.Measure = 20_000
	opts.CheckpointEvery = opts.Measure // warmup boundary and window end
	opts.EphemeralResults = true
	opts.Store = slowStore(t, 2*time.Millisecond)
	r := ckptRunner(t, opts)
	var specs []SimSpec
	for _, k := range []core.Kind{core.KindREFab, core.KindREFpb, core.KindDARP, core.KindDSARP} {
		specs = append(specs, r.specFor(r.Mixes()[0], k, timing.Gb8, ""))
	}
	plainOpts := tinyOpts()
	plainOpts.Measure = opts.Measure
	want, ok := NewRunner(plainOpts).RunAll(specs)
	if !ok {
		t.Fatal("reference run withheld its results")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8*len(specs))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range specs {
				spec := specs[(g+i)%len(specs)]
				res, _, err := r.RunSpecInfo(spec)
				if err != nil {
					errs <- err
					continue
				}
				if !reflect.DeepEqual(res, want[spec.Key()]) {
					errs <- fmt.Errorf("%s: result diverged from a plain run", spec.Mechanism)
				}
			}
			r.WaitWrites()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := r.SimsRun(); n != int64(len(specs)) {
		t.Errorf("SimsRun = %d, want %d (one per spec)", n, len(specs))
	}
	if n := r.StoreErrs(); n != 0 {
		t.Errorf("StoreErrs = %d", n)
	}
	for _, spec := range specs {
		if !opts.Store.Contains(spec.Key()) {
			t.Errorf("%s: result missing from the store", spec.Mechanism)
		}
	}
	if n, w := opts.Store.Stats().SnapshotEntries, r.CheckpointsWritten(); n != 2*len(specs) || int64(n) != w {
		t.Errorf("%d snapshot entries, %d written; want %d of each", n, w, 2*len(specs))
	}
	if n := cachedResults(r); n != 0 {
		t.Errorf("ephemeral runner holds %d results after WaitWrites, want 0", n)
	}
}

// TestRunAllLeavesResultsDurable: RunAll returns only once its results
// are in the store, also when it stops early on Interrupt — so an
// interrupted `experiments -store` sweep stays resumable.
func TestRunAllLeavesResultsDurable(t *testing.T) {
	opts := tinyOpts()
	opts.Store = slowStore(t, 30*time.Millisecond)
	opts.Parallelism = 1
	var r *Runner
	opts.Progress = func(done int, _ string) {
		if done == 2 {
			r.Interrupt()
		}
	}
	r = NewRunner(opts)
	var specs []SimSpec
	for _, k := range []core.Kind{core.KindREFab, core.KindREFpb, core.KindDARP} {
		specs = append(specs, r.specFor(r.Mixes()[0], k, timing.Gb8, ""))
	}
	if _, ok := r.RunAll(specs); ok {
		t.Fatal("interrupted RunAll returned its partial results")
	}
	for i, spec := range specs {
		if got, want := opts.Store.Contains(spec.Key()), i < 2; got != want {
			t.Errorf("%s: in store = %v on return, want %v", spec.Mechanism, got, want)
		}
	}

	resumed := tinyOpts()
	resumed.Store = opts.Store
	all := NewRunner(resumed)
	if _, ok := all.RunAll(specs); !ok {
		t.Fatal("RunAll withheld its results")
	}
	for _, spec := range specs {
		if !opts.Store.Contains(spec.Key()) {
			t.Errorf("%s: result missing from the store when RunAll returned", spec.Mechanism)
		}
	}
	if all.SimsRun() != 1 || all.StoreHits() != 2 {
		t.Errorf("resumed sweep: SimsRun %d, StoreHits %d; want 1 and 2", all.SimsRun(), all.StoreHits())
	}
}
