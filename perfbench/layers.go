package main

import (
	"fmt"
	"os"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/exp"
	"dsarp/internal/sim"
	"dsarp/internal/store"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// simConfig is the sim.Config a prepared spec with no variant describes.
func simConfig(s exp.SimSpec) (sim.Config, error) {
	k, err := core.ParseKind(s.Mechanism)
	if err != nil {
		return sim.Config{}, err
	}
	eng, err := sim.ParseEngine(s.Engine)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Workload:  workload.Workload{Name: s.Name, Benchmarks: s.Benchmarks},
		Mechanism: k,
		Density:   timing.Density(s.DensityGb),
		Engine:    eng,
		Seed:      s.Seed,
		Warmup:    s.Warmup,
		Measure:   s.Measure,
	}.WithDefaults(), nil
}

// timeMedian calls fn n times and returns the median duration in unit.
func timeMedian(n int, unit time.Duration, fn func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t)) / float64(unit)
	}
	return median(xs), nil
}

// probeLayers times calls into single layers' public functions on the
// representative spec rep (prepared, with its computed result res).
func probeLayers(rep exp.SimSpec, res sim.Result, tmpRoot string) (map[string]float64, error) {
	out := map[string]float64{}
	cfg, err := simConfig(rep)
	if err != nil {
		return nil, err
	}
	end := cfg.Warmup + cfg.Measure

	if out["sim.new_system_ms"], err = timeMedian(5, time.Millisecond, func() error {
		_, err := sim.NewSystem(cfg)
		return err
	}); err != nil {
		return nil, err
	}

	// Host time per engine-stepped cycle over the measurement window.
	var perCycle []float64
	for i := 0; i < 3; i++ {
		s, err := sim.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		s.RunTo(cfg.Warmup)
		stepped := s.SteppedCycles()
		t := time.Now()
		s.RunTo(end)
		perCycle = append(perCycle, float64(time.Since(t).Nanoseconds())/float64(s.SteppedCycles()-stepped))
	}
	out["sim.ns_per_stepped_cycle"] = median(perCycle)

	// Checkpoint codec on a machine advanced to the end of warmup.
	s, err := sim.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	s.RunTo(cfg.Warmup)
	if !s.CanSnapshot() {
		return nil, fmt.Errorf("%s %s cannot snapshot", rep.Name, rep.Mechanism)
	}
	var snapData []byte
	if out["snap.snapshot_ms"], err = timeMedian(5, time.Millisecond, func() error {
		snapData = s.Snapshot()
		return nil
	}); err != nil {
		return nil, err
	}
	out["snap.bytes"] = float64(len(snapData))
	if out["snap.restore_ms"], err = timeMedian(5, time.Millisecond, func() error {
		_, err := sim.RestoreSystem(cfg, snapData)
		return err
	}); err != nil {
		return nil, err
	}

	// Result codec.
	var enc []byte
	if out["exp.encode_us"], err = timeMedian(200, time.Microsecond, func() error {
		enc, err = exp.EncodeResult(res)
		return err
	}); err != nil {
		return nil, err
	}
	out["exp.result_bytes"] = float64(len(enc))
	if out["exp.decode_us"], err = timeMedian(200, time.Microsecond, func() error {
		_, err := exp.DecodeResult(enc)
		return err
	}); err != nil {
		return nil, err
	}

	// Store writes and reads of that payload under distinct keys.
	dir, err := os.MkdirTemp(tmpRoot, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Generation: exp.SchemaVersion})
	if err != nil {
		return nil, err
	}
	const entries = 50
	i := 0
	if out["store.put_ms_p50"], err = timeMedian(entries, time.Millisecond, func() error {
		i++
		return st.Put(store.KeyOf([]byte{byte(i)}), enc)
	}); err != nil {
		return nil, err
	}
	i = 0
	if out["store.get_us_p50"], err = timeMedian(entries, time.Microsecond, func() error {
		i++
		if _, ok := st.Get(store.KeyOf([]byte{byte(i)})); !ok {
			return fmt.Errorf("store probe: entry %d missing", i)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// probeRunSpec times RunSpecInfo, serially on a store-less runner, for
// the specs of one mix: the service workload's substitute for batch
// latencies.
func probeRunSpec(specs []exp.SimSpec) (float64, error) {
	r := exp.NewRunner(exp.Options{})
	i := 0
	return timeMedian(len(specs), time.Millisecond, func() error {
		_, _, err := r.RunSpecInfo(specs[i])
		i++
		return err
	})
}
