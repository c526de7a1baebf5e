package exp

import (
	"flag"
	"fmt"

	"dsarp/internal/sim"
	"dsarp/internal/store"
)

// Flags are the flags shared by every command that runs registry
// experiments (experiments, dsarpd and fleet): the scale, the seed, the
// engine and the result store. One registration and one resolution keep
// the commands in agreement, so the same flags enumerate the same specs
// and render the same table whichever command runs them.
type Flags struct {
	scale, engine, store              string
	perCategory, sensitivity          int
	warmup, measure, seed, storeMaxMB int64
}

// RegisterFlags registers the shared flags on fs. storeDir is the -store
// default: empty runs without a store.
func RegisterFlags(fs *flag.FlagSet, storeDir string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.scale, "scale", "default", "experiment scale: default | paper")
	fs.IntVar(&f.perCategory, "percat", 0, "workloads per intensity category (0 = the scale's)")
	fs.IntVar(&f.sensitivity, "sensitivity", 0, "sensitivity workload count (0 = the scale's)")
	fs.Int64Var(&f.warmup, "warmup", 0, "warmup in DRAM cycles (0 = the scale's)")
	fs.Int64Var(&f.measure, "measure", 0, "measurement window in DRAM cycles (0 = the scale's)")
	fs.Int64Var(&f.seed, "seed", Defaults().Seed, "workload seed")
	fs.StringVar(&f.engine, "engine", "event", "simulation engine: event (clock-skipping) or cycle (reference stepper); results are bit-identical")
	fs.StringVar(&f.store, "store", storeDir, "content-addressed result store directory ('' disables)")
	fs.Int64Var(&f.storeMaxMB, "store-max-mb", 0, "store size cap in MiB (0 = unlimited)")
	return f
}

// Options resolves the flags: the scale's options with each nonzero
// count or window in its place, the seed and the engine. A negative
// value, an unknown scale or an unknown engine is an error naming it.
func (f *Flags) Options() (Options, error) {
	for _, c := range []struct {
		name string
		v    int64
	}{{"percat", int64(f.perCategory)}, {"sensitivity", int64(f.sensitivity)}, {"warmup", f.warmup},
		{"measure", f.measure}, {"seed", f.seed}, {"store-max-mb", f.storeMaxMB}} {
		if c.v < 0 {
			return Options{}, fmt.Errorf("-%s %d: must not be negative", c.name, c.v)
		}
	}
	o, err := ParseScale(f.scale)
	if err != nil {
		return Options{}, err
	}
	if f.perCategory > 0 {
		o.PerCategory = f.perCategory
	}
	if f.sensitivity > 0 {
		o.Sensitivity = f.sensitivity
	}
	if f.warmup > 0 {
		o.Warmup = f.warmup
	}
	if f.measure > 0 {
		o.Measure = f.measure
	}
	o.Seed = f.seed
	if o.Engine, err = sim.ParseEngine(f.engine); err != nil {
		return Options{}, err
	}
	return o, nil
}

// OpenStore opens the -store directory under SchemaVersion, capped at
// -store-max-mb; so carries the caller's other store settings. It
// returns nil and no error when -store is empty.
func (f *Flags) OpenStore(so store.Options) (*store.Store, error) {
	if f.store == "" {
		return nil, nil
	}
	so.MaxBytes = f.storeMaxMB << 20
	so.Generation = SchemaVersion
	return store.Open(f.store, so)
}
