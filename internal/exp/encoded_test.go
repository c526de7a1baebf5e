package exp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/sim"
	"dsarp/internal/store"
	"dsarp/internal/timing"
)

// ephemeralRunner is a runner as dsarpd configures one: a store it drops
// results to once they are written.
func ephemeralRunner(t *testing.T, opts Options) *Runner {
	t.Helper()
	if opts.Store == nil {
		opts.Store = openStore(t)
	}
	opts.EphemeralResults = true
	r := NewRunner(opts)
	t.Cleanup(r.WaitWrites)
	return r
}

// prepare is Runner.Prepare for a spec the test knows is valid.
func prepare(t *testing.T, r *Runner, spec SimSpec) Prepared {
	t.Helper()
	p, err := r.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// encodeOf runs spec through RunSpecInfo or RunSpecEncoded and returns the
// result's bytes.
func encodeOf(t *testing.T, r *Runner, spec SimSpec, encoded bool) ([]byte, RunInfo) {
	t.Helper()
	if encoded {
		data, info, err := r.RunSpecEncoded(prepare(t, r, spec))
		if err != nil {
			t.Fatal(err)
		}
		return data, info
	}
	res, info, err := r.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return data, info
}

// TestEncodedReplacedEntryRecomputes: a store hit served on its recorded
// digest is still checked against the bytes on disk. Once a warm entry is
// replaced with honestly hashed bytes that DecodeResult rejects, the next
// call of either entry point recomputes, returns the original bytes, and
// its write heals the entry.
func TestEncodedReplacedEntryRecomputes(t *testing.T) {
	r := ephemeralRunner(t, tinyOpts())
	st := r.opts.Store
	spec := r.specFor(r.Mixes()[0], core.KindREFab, timing.Gb8, "")
	key := spec.Key()

	orig, info := encodeOf(t, r, spec, true)
	if info.Source != SourceComputed || info.Key != key {
		t.Fatalf("first call: source %v key %s; want computed under %s", info.Source, info.Key, key)
	}
	info.Writes.Wait()
	warm, info := encodeOf(t, r, spec, true)
	if info.Source != SourceStore || !bytes.Equal(warm, orig) || info.Key != key {
		t.Fatalf("warm call: source %v, same bytes %v, key %s; want the stored bytes", info.Source, bytes.Equal(warm, orig), info.Key)
	}

	undecodable := map[string][]byte{
		"unknown field":  []byte(`{"mechanism":"REFab","unknown_field":1}`),
		"trailing value": append(append([]byte{}, orig...), `{}`...),
	}
	for name, junk := range undecodable {
		if _, err := DecodeResult(junk); err == nil {
			t.Fatalf("%s: DecodeResult accepted the replacement", name)
		}
		for _, encoded := range []bool{false, true} {
			if err := st.Put(key, junk); err != nil {
				t.Fatal(err)
			}
			got, info := encodeOf(t, r, spec, encoded)
			if info.Source != SourceComputed || !bytes.Equal(got, orig) {
				t.Errorf("%s, RunSpecEncoded %v: source %v, original bytes %v; want a recompute of the original",
					name, encoded, info.Source, bytes.Equal(got, orig))
			}
			info.Writes.Wait()
			if stored, ok := st.Get(key); !ok || !bytes.Equal(stored, orig) {
				t.Errorf("%s, RunSpecEncoded %v: the recompute's write did not heal the entry", name, encoded)
			}
		}
	}
	if n, want := r.SimsRun(), int64(1+2*len(undecodable)); n != want {
		t.Errorf("SimsRun = %d, want %d", n, want)
	}
}

// TestEncodedTakesThePreparedKey: RunSpecEncoded runs a prepared spec
// under the key it carries and hashes nothing itself, so a spec prepared
// once is keyed once however often it runs.
func TestEncodedTakesThePreparedKey(t *testing.T) {
	r := ephemeralRunner(t, tinyOpts())
	p := prepare(t, r, r.specFor(r.Mixes()[0], core.KindREFab, timing.Gb8, ""))
	elsewhere := Prepared{spec: p.spec, key: store.KeyOf([]byte("elsewhere"))}
	_, info, err := r.RunSpecEncoded(elsewhere)
	if err != nil {
		t.Fatal(err)
	}
	info.Writes.Wait()
	st := r.opts.Store
	if info.Key != elsewhere.key || !st.Contains(elsewhere.key) || st.Contains(p.key) {
		t.Errorf("ran under %s, stored under the carried key %v, under the spec's own %v; want the carried key %s only",
			info.Key, st.Contains(elsewhere.key), st.Contains(p.key), elsewhere.key)
	}
}

// TestEncodedUndecodableNeverTrusted: bytes DecodeResult rejected are
// never served, however often they are read. The runner's 1ns budget
// aborts each recompute, so the undecodable entry stays in the store and
// the second call reads it again.
func TestEncodedUndecodableNeverTrusted(t *testing.T) {
	r := ephemeralRunner(t, Options{
		Cores: 2, Warmup: 2_000, Measure: 8_000, Seed: 42,
		SimTimeout: time.Nanosecond,
	})
	p := prepare(t, r, watchdogSpec())
	if err := r.opts.Store.Put(p.Key(), []byte(`{"unknown_field":1}`)); err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		data, info, err := r.RunSpecEncoded(p)
		if !errors.Is(err, ErrSimTimeout) || info.Key != p.Key() {
			t.Fatalf("call %d: %q, source %v, key %s, err %v; want the entry recomputed and timed out under key %s",
				call, data, info.Source, info.Key, err, p.Key())
		}
	}
}

// TestEncodedDecodesOncePerPayload: an ephemeral runner over a store
// another runner filled decodes each entry on its first hit and serves
// every later hit of the same bytes without decoding them.
func TestEncodedDecodesOncePerPayload(t *testing.T) {
	fill := tinyOpts()
	fill.Store = openStore(t)
	filler := NewRunner(fill)
	var specs []SimSpec
	for _, k := range []core.Kind{core.KindREFab, core.KindREFpb, core.KindDSARP} {
		specs = append(specs, filler.specFor(filler.Mixes()[0], k, timing.Gb8, ""))
	}
	if _, ok := filler.RunAll(specs); !ok {
		t.Fatal("RunAll withheld its results")
	}

	r := ephemeralRunner(t, fill)
	for round := 1; round <= 3; round++ {
		for _, spec := range specs {
			data, info := encodeOf(t, r, spec, true)
			stored, _ := fill.Store.Get(spec.Key())
			if info.Source != SourceStore || !bytes.Equal(data, stored) {
				t.Errorf("round %d, %s: source %v, stored bytes %v; want the stored bytes", round, spec.Mechanism, info.Source, bytes.Equal(data, stored))
			}
		}
		if n := r.decodes.Load(); n != int64(len(specs)) {
			t.Errorf("after round %d: %d decodes, want %d (one per entry)", round, n, len(specs))
		}
	}
	if r.SimsRun() != 0 {
		t.Errorf("SimsRun = %d, want 0", r.SimsRun())
	}
}

// TestEncodedConcurrent: eight goroutines mix RunSpecInfo and
// RunSpecEncoded over overlapping specs on an ephemeral runner whose
// store writes are slow, so calls meet computations, in-flight writes,
// and store hits with and without a recorded digest. Every payload
// matches a serial run's, and each spec is simulated once.
func TestEncodedConcurrent(t *testing.T) {
	opts := tinyOpts()
	opts.Measure = 20_000
	serial := NewRunner(opts)
	opts.Store = slowStore(t, 2*time.Millisecond)
	r := ephemeralRunner(t, opts)
	var specs []SimSpec
	var prepared []Prepared
	var want [][]byte
	for _, k := range []core.Kind{core.KindREFab, core.KindREFpb, core.KindDARP, core.KindDSARP} {
		spec := r.specFor(r.Mixes()[0], k, timing.Gb8, "")
		data, _ := encodeOf(t, serial, spec, false)
		specs, want = append(specs, spec), append(want, data)
		prepared = append(prepared, prepare(t, r, spec))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8*3*len(specs))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*len(specs); i++ {
				n := (g + i) % len(specs)
				var data []byte
				var err error
				if (g+i)%2 == 0 {
					data, _, err = r.RunSpecEncoded(prepared[n])
				} else {
					var res sim.Result
					if res, _, err = r.RunSpecInfo(specs[n]); err == nil {
						data, err = EncodeResult(res)
					}
				}
				if err != nil {
					errs <- err
				} else if !bytes.Equal(data, want[n]) {
					errs <- fmt.Errorf("%s: payload diverged from a serial run", specs[n].Mechanism)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n, w := r.SimsRun(), serial.SimsRun(); n != w {
		t.Errorf("SimsRun = %d, serial run %d", n, w)
	}
}
