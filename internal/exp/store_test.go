package exp

import (
	"reflect"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/sim"
	"dsarp/internal/store"
	"dsarp/internal/timing"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestResultJSONRoundTrip pins the byte-exactness foundation: a result
// decoded from its wire encoding is identical to the original, so every
// table derived from a stored result matches a fresh compute byte for
// byte.
func TestResultJSONRoundTrip(t *testing.T) {
	r := NewRunner(tinyOpts())
	res, _ := runOne(t, r, r.specFor(r.Mixes()[0], core.KindDSARP, timing.Gb32, ""))
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", back, res)
	}
	if _, err := DecodeResult([]byte(`{"unknown_field":1}`)); err == nil {
		t.Error("foreign payload decoded without error")
	}
}

// FuzzDecodeResult feeds DecodeResult hostile bytes, as a peer or a
// damaged store entry could: anything it accepts must re-encode, and
// decoding that encoding must give the same result.
func FuzzDecodeResult(f *testing.F) {
	r := NewRunner(registryOpts())
	res, _ := runOne(f, r, r.specFor(r.Mixes()[0], core.KindDSARP, timing.Gb32, ""))
	data, err := EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(append([]byte(`{"unknown_field":1,`), data[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		back, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Errorf("re-encoding changed the result:\n got %+v\nwant %+v", back, res)
		}
	})
}

// TestWarmStoreRestart is the resume contract: a second runner over the
// same store reproduces the golden tables byte for byte without executing
// a single simulation.
func TestWarmStoreRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation golden run")
	}
	st := openStore(t)
	opts := goldenOpts()
	opts.Store = st

	cold := NewRunner(opts)
	table2 := runAs[Table2Result](t, cold, "table2").String()
	fig13 := runAs[Fig13Result](t, cold, "fig13").String()
	if table2 != goldenTable2 || fig13 != goldenFig13 {
		t.Fatalf("store-backed cold run diverged from golden tables:\n%s\n%s", table2, fig13)
	}
	if cold.SimsRun() == 0 {
		t.Fatal("cold run executed no simulations")
	}

	warm := NewRunner(opts) // fresh in-memory cache, same store
	if got := runAs[Table2Result](t, warm, "table2").String(); got != goldenTable2 {
		t.Errorf("warm Table2 diverged:\n got:\n%s\nwant:\n%s", got, goldenTable2)
	}
	if got := runAs[Fig13Result](t, warm, "fig13").String(); got != goldenFig13 {
		t.Errorf("warm Fig13 diverged:\n got:\n%s\nwant:\n%s", got, goldenFig13)
	}
	if n := warm.SimsRun(); n != 0 {
		t.Errorf("warm run executed %d simulations, want 0 (all from store)", n)
	}
	if warm.StoreHits() == 0 {
		t.Error("warm run recorded no store hits")
	}
}

// TestWarmStoreSurvivesPartialResults models an interrupted sweep: only
// some results are on disk, and the next run computes exactly the missing
// ones.
func TestWarmStoreSurvivesPartialResults(t *testing.T) {
	st := openStore(t)
	opts := tinyOpts()
	opts.Store = st
	r1 := NewRunner(opts)
	wl := r1.Mixes()[0]
	runOne(t, r1, r1.specFor(wl, core.KindREFab, timing.Gb8, ""))
	if r1.SimsRun() != 1 {
		t.Fatalf("SimsRun = %d, want 1", r1.SimsRun())
	}

	r2 := NewRunner(opts)
	runOne(t, r2, r2.specFor(wl, core.KindREFab, timing.Gb8, "")) // from store
	runOne(t, r2, r2.specFor(wl, core.KindREFpb, timing.Gb8, "")) // missing: computes
	if r2.SimsRun() != 1 || r2.StoreHits() != 1 {
		t.Errorf("SimsRun=%d StoreHits=%d, want 1 and 1", r2.SimsRun(), r2.StoreHits())
	}
}

func TestSpecKeysDistinguishConfigs(t *testing.T) {
	r := NewRunner(tinyOpts())
	wl := r.Mixes()[0]
	base := r.specFor(wl, core.KindDSARP, timing.Gb8, "")
	keys := map[store.Key]string{base.Key(): "base"}
	for name, mut := range map[string]func(*SimSpec){
		"mech":    func(s *SimSpec) { s.Mechanism = core.KindREFab.String() },
		"density": func(s *SimSpec) { s.DensityGb = 32 },
		"variant": func(s *SimSpec) { s.Variant = "subs16" },
		"seed":    func(s *SimSpec) { s.Seed++ },
		"measure": func(s *SimSpec) { s.Measure++ },
		"warmup":  func(s *SimSpec) { s.Warmup++ },
		"engine":  func(s *SimSpec) { s.Engine = sim.EngineCycle.String() },
		"name":    func(s *SimSpec) { s.Name = "other" },
	} {
		spec := base
		mut(&spec)
		if prev, dup := keys[spec.Key()]; dup {
			t.Errorf("%s change collided with %s", name, prev)
		}
		keys[spec.Key()] = name
	}
}

// TestSpecNormalizationKeysByContent: a spec written with library
// benchmark names keys identically to the same spec with inline profiles,
// and runner defaults fill unset fields.
func TestSpecNormalizationKeysByContent(t *testing.T) {
	r := NewRunner(tinyOpts())
	byName, err := r.PrepareSpec(SimSpec{
		Name:           "pair",
		BenchmarkNames: []string{"stream.triad", "h264.encode"},
		Mechanism:      "DSARP",
		DensityGb:      8,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	inline, err := r.PrepareSpec(SimSpec{
		Name:       "pair",
		Benchmarks: byName.Benchmarks,
		Mechanism:  "DSARP",
		DensityGb:  8,
		Seed:       42,
		Warmup:     r.Options().Warmup,
		Measure:    r.Options().Measure,
		Engine:     r.Options().Engine.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if byName.Key() != inline.Key() {
		t.Error("name-referenced and inline specs key differently")
	}
	if byName.Warmup != r.Options().Warmup || byName.Measure != r.Options().Measure {
		t.Errorf("defaults not filled: %+v", byName)
	}
	// A warmup-free run is not expressible (sim.Config treats zero warmup
	// as unset and would silently substitute its own default): negative
	// spellings are rejected rather than mis-keyed.
	zero := byName
	zero.Warmup = -1
	if _, err := r.PrepareSpec(zero); err == nil {
		t.Error("negative warmup accepted; it cannot mean anything")
	}
}

func TestPrepareSpecRejectsBadInput(t *testing.T) {
	r := NewRunner(tinyOpts())
	good := SimSpec{Name: "w", BenchmarkNames: []string{"h264.encode"},
		Mechanism: "REFab", DensityGb: 8}
	if _, err := r.PrepareSpec(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*SimSpec){
		"no-name":       func(s *SimSpec) { s.Name = "" },
		"no-benchmarks": func(s *SimSpec) { s.BenchmarkNames = nil },
		"bad-benchmark": func(s *SimSpec) { s.BenchmarkNames = []string{"nope"} },
		"bad-mechanism": func(s *SimSpec) { s.Mechanism = "MAGIC" },
		"bad-density":   func(s *SimSpec) { s.DensityGb = -8 },
		"bad-engine":    func(s *SimSpec) { s.Engine = "warp" },
		"bad-variant":   func(s *SimSpec) { s.Variant = "quantum9" },
		"bad-measure":   func(s *SimSpec) { s.Measure = -1 },
	} {
		spec := good
		mut(&spec)
		if _, err := r.PrepareSpec(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVariantModsMatchInternalSweeps pins the registry to the modifiers
// the experiment code uses, so HTTP-submitted variants hit the same store
// keys AND the same configurations as the runner's own sweeps.
func TestVariantModsMatchInternalSweeps(t *testing.T) {
	check := func(variant string, want sim.Config) {
		t.Helper()
		mod, err := VariantMod(variant)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		var got sim.Config
		if mod != nil {
			mod(&got)
		}
		if variant == "tfaw15" {
			var p timing.Params
			got.AdjustTiming(&p)
			if p.TFAW != 15 || p.TRRD != 3 {
				t.Errorf("tfaw15 set TFAW=%d TRRD=%d", p.TFAW, p.TRRD)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s applied %+v, want %+v", variant, got, want)
		}
	}
	check("", sim.Config{})
	check("cores4", sim.Config{})
	check("ret64", sim.Config{Retention: timing.Retention64ms})
	check("subs16", sim.Config{SubarraysPerBank: 16})
	check("tfaw15", sim.Config{})
}

// TestRunSpecMatchesInternalRun: the serving-layer entry point returns the
// byte-identical result and shares the cache with the experiment path
// (RunAll).
func TestRunSpecMatchesInternalRun(t *testing.T) {
	r := NewRunner(tinyOpts())
	spec := r.specFor(r.Mixes()[0], core.KindREFab, timing.Gb8, "")
	direct, ok := r.RunAll([]SimSpec{spec})
	if !ok {
		t.Fatal("RunAll withheld its results")
	}
	res, src := runOne(t, r, spec)
	if src != SourceMemory {
		t.Errorf("source = %v, want memory (RunAll already cached it)", src)
	}
	if !reflect.DeepEqual(direct[spec.Key()], res) {
		t.Error("RunSpecInfo result differs from RunAll's")
	}
	if _, _, err := r.RunSpecInfo(SimSpec{Name: "broken"}); err == nil {
		t.Error("invalid spec did not error")
	}
}

// TestEphemeralResultsBoundMemory: with EphemeralResults and a store, a
// completed result leaves no in-memory cache entry — later hits re-read
// the disk entry (one sim, then store hits), so a long-lived daemon's RAM
// does not grow with the number of unique specs served.
func TestEphemeralResultsBoundMemory(t *testing.T) {
	opts := tinyOpts()
	opts.Store = openStore(t)
	opts.EphemeralResults = true
	r := NewRunner(opts)
	spec := r.specFor(r.Mixes()[0], core.KindREFab, timing.Gb8, "")
	first, _ := runOne(t, r, spec)
	if got, _ := runOne(t, r, spec); !reflect.DeepEqual(first, got) {
		t.Error("store re-read diverged from the computed result")
	}
	if n := r.SimsRun(); n != 1 {
		t.Errorf("SimsRun = %d, want 1 (second call must hit the store, not recompute)", n)
	}
	if n := r.StoreHits(); n != 1 {
		t.Errorf("StoreHits = %d, want 1", n)
	}
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 0 {
		t.Errorf("in-memory cache holds %d results under EphemeralResults, want 0", cached)
	}

	// Without a store the flag is ignored: dropping the only copy would
	// force recomputes.
	opts2 := tinyOpts()
	opts2.EphemeralResults = true
	r2 := NewRunner(opts2)
	runOne(t, r2, spec)
	runOne(t, r2, spec)
	if n := r2.SimsRun(); n != 1 {
		t.Errorf("store-less EphemeralResults recomputed: SimsRun = %d, want 1", n)
	}
}

func TestInterruptStopsScheduling(t *testing.T) {
	for _, par := range []int{1, 4} {
		opts := tinyOpts()
		opts.Parallelism = par
		r := NewRunner(opts)
		r.Interrupt()
		// Must return promptly without simulating, and assemble no table.
		if out, err := r.RunExperiment("table2"); out != nil || err != nil {
			t.Errorf("Parallelism=%d: interrupted RunExperiment = %v, %v; want nil, nil", par, out, err)
		}
		if n := r.SimsRun(); n != 0 {
			t.Errorf("Parallelism=%d: interrupted runner still ran %d simulations", par, n)
		}
		if !r.Interrupted() {
			t.Error("Interrupted() lost the flag")
		}
	}
}
