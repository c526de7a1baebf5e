package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dsarp/internal/core"
	"dsarp/internal/sim"
	"dsarp/internal/snap"
	"dsarp/internal/store"
	"dsarp/internal/timing"
	"dsarp/internal/trace"
	"dsarp/internal/workload"
)

// SchemaVersion names the simulator behavior generation and is folded into
// every store key. Any change that alters simulation output for the same
// config (scheduler behavior, timing parameters, workload generation, the
// Result wire format) MUST bump this string, or warm stores would serve
// stale results; pure optimizations pinned bit-exact by the golden tests
// keep it. The fixtures are the check: scripts/regen.sh rewrites them after
// an intended change, and scripts/check-schema-bump.sh fails a change to
// them that does not bump this string.
const SchemaVersion = "dsarp-sim-v1"

// SimSpec is a fully-resolved, JSON-round-trippable description of one
// simulation: everything that determines its Result, and nothing else. It
// is the unit of exchange of the serving layer (internal/serve) and the
// input to content-addressed store keys.
//
// Benchmarks carry full trace profiles; BenchmarkNames may reference the
// built-in workload library instead and is resolved (and cleared) by
// Normalize, so both spellings key identically.
//
// Variant names a registered configuration modifier (see VariantMod); the
// empty variant is the unmodified Table 1 configuration. By contract a
// variant string uniquely determines the modification it applies — two
// different modifications must never share a variant name, since the store
// key cannot see inside a modifier function.
type SimSpec struct {
	Name           string          `json:"name"`
	Benchmarks     []trace.Profile `json:"benchmarks,omitempty"`
	BenchmarkNames []string        `json:"benchmark_names,omitempty"`
	Mechanism      string          `json:"mechanism"`
	DensityGb      int             `json:"density_gb"`
	Variant        string          `json:"variant,omitempty"`
	Seed           int64           `json:"seed"`
	// Warmup and Measure are DRAM-cycle counts; 0 means "use the runner's
	// default" (a warmup-free run is not expressible: sim.Config itself
	// treats zero warmup as unset).
	Warmup  int64  `json:"warmup,omitempty"`
	Measure int64  `json:"measure,omitempty"`
	Engine  string `json:"engine,omitempty"`
}

// specFor builds the canonical spec for one of the runner's own runs.
func (r *Runner) specFor(wl workload.Workload, k core.Kind, d timing.Density, variant string) SimSpec {
	return SimSpec{
		Name:       wl.Name,
		Benchmarks: wl.Benchmarks,
		Mechanism:  k.String(),
		DensityGb:  int(d),
		Variant:    variant,
		Seed:       r.opts.Seed,
		Warmup:     r.opts.Warmup,
		Measure:    r.opts.Measure,
		Engine:     r.opts.Engine.String(),
	}
}

// PrepareSpec normalizes and validates an externally-supplied spec:
// library benchmark references are resolved to full profiles, unset
// warmup/measure/engine fall back to the runner's options, and every field
// is checked. The returned spec is the canonical form whose Key addresses
// the result.
func (r *Runner) PrepareSpec(s SimSpec) (SimSpec, error) {
	if len(s.BenchmarkNames) > 0 {
		if len(s.Benchmarks) > 0 {
			return s, errors.New("exp: spec sets both benchmarks and benchmark_names")
		}
		for _, name := range s.BenchmarkNames {
			p, err := workload.ByName(name)
			if err != nil {
				return s, fmt.Errorf("exp: %w", err)
			}
			s.Benchmarks = append(s.Benchmarks, p)
		}
		s.BenchmarkNames = nil
	}
	if s.Engine == "" {
		s.Engine = r.opts.Engine.String()
	}
	if s.Warmup == 0 {
		s.Warmup = r.opts.Warmup
	}
	if s.Measure == 0 {
		s.Measure = r.opts.Measure
	}
	if s.Name == "" {
		return s, errors.New("exp: spec needs a workload name")
	}
	if len(s.Benchmarks) == 0 {
		return s, fmt.Errorf("exp: spec %q has no benchmarks", s.Name)
	}
	for i, b := range s.Benchmarks {
		if b.Name == "" {
			return s, fmt.Errorf("exp: spec %q benchmark %d has no name", s.Name, i)
		}
	}
	if _, err := core.ParseKind(s.Mechanism); err != nil {
		return s, fmt.Errorf("exp: %w", err)
	}
	if s.DensityGb <= 0 {
		return s, fmt.Errorf("exp: spec %q has density %d Gb", s.Name, s.DensityGb)
	}
	if _, err := sim.ParseEngine(s.Engine); err != nil {
		return s, fmt.Errorf("exp: %w", err)
	}
	if s.Warmup <= 0 || s.Measure <= 0 {
		return s, fmt.Errorf("exp: spec %q has warmup=%d measure=%d", s.Name, s.Warmup, s.Measure)
	}
	if _, err := VariantMod(s.Variant); err != nil {
		return s, err
	}
	return s, nil
}

// Prepared is a spec PrepareSpec accepted, together with its content
// address: what RunSpecEncoded runs. Only Runner.Prepare builds one, so
// its spec is canonical and its key is that spec's Key. Callers must not
// modify the spec's benchmark profiles, which every copy shares.
type Prepared struct {
	spec SimSpec
	key  store.Key
}

// Prepare is PrepareSpec followed by Key: it validates and hashes a spec
// once, for every later run of it.
func (r *Runner) Prepare(s SimSpec) (Prepared, error) {
	s, err := r.PrepareSpec(s)
	if err != nil {
		return Prepared{}, err
	}
	return Prepared{spec: s, key: s.Key()}, nil
}

// Spec returns the canonical spec.
func (p Prepared) Spec() SimSpec { return p.spec }

// Key returns the spec's content address.
func (p Prepared) Key() store.Key { return p.key }

// Key is the spec's content address: SHA-256 over the schema version and
// the canonical JSON encoding. Call it on a normalized spec (runner-built
// specs always are; external ones go through PrepareSpec first).
func (s SimSpec) Key() store.Key {
	payload, err := json.Marshal(struct {
		Schema string  `json:"schema"`
		Spec   SimSpec `json:"spec"`
	}{SchemaVersion, s})
	if err != nil {
		// SimSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("exp: marshal spec: %v", err))
	}
	return store.KeyOf(payload)
}

// PrefixKey is the content address of the spec's simulation *prefix* at a
// given snapshot cycle: the key checkpoints are stored and found under.
// It hashes the schema version, the snapshot layout version, the canonical
// spec with Measure zeroed, and the cycle. Zeroing Measure is what makes
// measure-extension reuse work — a run's state at cycle C is independent
// of how long the measurement window will eventually be — while every
// other field (mechanism, density, variant, seed, warmup, engine,
// benchmarks) shapes the machine state from cycle 0 and stays in the hash.
// Folding snap.Version in (unlike Key) retires stale-layout snapshots at
// the key level; folding "snap" into the payload keeps the checkpoint key
// space disjoint from result keys even within the same store namespace.
func (s SimSpec) PrefixKey(cycle int64) store.Key {
	s.Measure = 0
	payload, err := json.Marshal(struct {
		Schema string  `json:"schema"`
		Snap   string  `json:"snap"`
		Spec   SimSpec `json:"spec"`
		Cycle  int64   `json:"cycle"`
	}{SchemaVersion, snap.Version, s, cycle})
	if err != nil {
		// SimSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("exp: marshal prefix spec: %v", err))
	}
	return store.KeyOf(payload)
}

// label formats the spec the way Runner progress callbacks always have.
func (s SimSpec) label() string {
	return fmt.Sprintf("%s %s %s %s", s.Name, s.Mechanism, timing.Density(s.DensityGb), s.Variant)
}

// simConfig assembles the sim.Config a normalized spec describes, before
// any variant modifier is applied.
func (s SimSpec) simConfig() sim.Config {
	k, err := core.ParseKind(s.Mechanism)
	if err != nil {
		panic(fmt.Sprintf("exp: unnormalized spec: %v", err))
	}
	eng, err := sim.ParseEngine(s.Engine)
	if err != nil {
		panic(fmt.Sprintf("exp: unnormalized spec: %v", err))
	}
	return sim.Config{
		Workload:  workload.Workload{Name: s.Name, Benchmarks: s.Benchmarks},
		Mechanism: k,
		Density:   timing.Density(s.DensityGb),
		Engine:    eng,
		Seed:      s.Seed,
		Warmup:    s.Warmup,
		Measure:   s.Measure,
	}
}

// VariantMod resolves a variant name to the config modifier it denotes.
// Every variant any experiment uses is registered here — the registry is
// the single definition of what each name means, which is what lets an
// external caller (HTTP, CLI, a fleet client) request the exact runs the
// experiment code performs and hit the same store keys.
//
//	""          unmodified Table 1 configuration
//	coresN      no modification (tags a different core count, which the
//	            workload itself carries)
//	ret64       64 ms retention time (Table 6)
//	subsN       N subarrays per bank (Table 5)
//	tfawN       tFAW = N, tRRD = max(1, N/5) (Table 4)
//	flex16      DARP postpone bound 16, pre-erratum (ablation D1)
//	randpick    DARP write-refresh picks a random bank (ablation D2)
//	nothrottle  SARP tFAW/tRRD inflation disabled (ablation D3)
//	openrow     open-row page policy (ablation D4)
//	greedy      out-of-order refresh picks the largest-debt idle bank
//	            (ablation D5)
func VariantMod(variant string) (func(*sim.Config), error) {
	var n int
	switch {
	case variant == "":
		return nil, nil
	case variant == "ret64":
		return func(c *sim.Config) { c.Retention = timing.Retention64ms }, nil
	case matchInt(variant, "cores", &n):
		return nil, nil
	case matchInt(variant, "subs", &n):
		subs := n
		return func(c *sim.Config) { c.SubarraysPerBank = subs }, nil
	case matchInt(variant, "tfaw", &n):
		tfaw := n
		return func(c *sim.Config) {
			c.AdjustTiming = func(p *timing.Params) {
				p.TFAW = tfaw
				p.TRRD = max(1, tfaw/5)
			}
		}, nil
	case variant == "flex16":
		return darpVariant(core.DARPOptions{WriteRefresh: true, MaxPostpone: 16}), nil
	case variant == "randpick":
		return darpVariant(core.DARPOptions{WriteRefresh: true, RandomWritePick: true}), nil
	case variant == "nothrottle":
		return func(c *sim.Config) {
			c.AdjustTiming = func(p *timing.Params) {
				p.SARPThrottleABx1000 = 1000
				p.SARPThrottlePBx1000 = 1000
			}
		}, nil
	case variant == "openrow":
		return func(c *sim.Config) { c.OpenRow = true }, nil
	case variant == "greedy":
		return darpVariant(core.DARPOptions{WriteRefresh: true, GreedyIdlePick: true}), nil
	default:
		return nil, fmt.Errorf("exp: unknown variant %q", variant)
	}
}

// matchInt reports whether s is prefix immediately followed by a positive
// integer, storing it in *n.
func matchInt(s, prefix string, n *int) bool {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return false
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v <= 0 {
		return false
	}
	*n = v
	return true
}

// AloneSpec is the spec of a benchmark's alone run: single core, refresh
// disabled, 8 Gb — the normalization baseline every weighted-speedup
// number divides by.
func (r *Runner) AloneSpec(prof trace.Profile) SimSpec {
	wl := workload.Workload{Name: "alone." + prof.Name, Benchmarks: []trace.Profile{prof}}
	return r.specFor(wl, core.KindNoRef, timing.Gb8, "")
}
