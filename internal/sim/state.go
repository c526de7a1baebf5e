package sim

import (
	"errors"
	"fmt"

	"dsarp/internal/cache"
	"dsarp/internal/cpu"
	"dsarp/internal/snap"
	"dsarp/internal/stats"
)

// errCheckedSnapshot refuses checkpoints of, and restores into, a checked
// run: the protocol checker's state does not round-trip, and a resumed
// checked run would verify against a hole.
var errCheckedSnapshot = errors.New("sim: a checked run cannot snapshot or restore: checker state is not serialized")

// CanSnapshot reports whether this system's configuration supports
// snapshotting: every configuration does except a checked one.
func (s *System) CanSnapshot() bool { return !s.cfg.Check }

// Snapshot serializes the complete mutable machine state — cores (trace
// generator rng included), cache slices (MSHR chains), DRAM devices,
// controllers (queues and in-flight FIFOs), refresh policies, the engine's
// saturation counters, and the measurement baseline — into a versioned,
// hash-framed snap container. Restoring it with RestoreSystem under the
// same Config (Measure aside) yields a machine that produces bit-identical
// results to one that never stopped. The protocol checker's state is not
// captured, which is why CanSnapshot is false for a checked system.
//
// The buffer is sized once from an estimate: the slices' tag stores, which
// dominate and grow as the LLC fills, from their valid-line counts, plus
// what the rest of the machine took in this system's previous snapshot.
func (s *System) Snapshot() []byte {
	tags := 0
	for _, sl := range s.slices {
		tags += sl.StateSizeHint()
	}
	w := snap.NewWriter(tags + s.snapRest)
	w.Section("meta")
	w.I64(s.now)
	w.I64(s.stepped)
	w.I64(s.nextID)
	w.Int(s.loopSat)
	w.Int(s.loopBlind)
	w.Bool(s.landing)
	w.Int(len(s.devs))
	w.Int(len(s.cores))
	w.Bool(s.inMeasure)
	w.I64(s.startStepped)
	if s.inMeasure {
		w.Section("run")
		appendWindow(w, &s.start)
	}
	for ch, d := range s.devs {
		w.Section(fmt.Sprintf("dev%d", ch))
		d.AppendState(w)
	}
	for i, c := range s.cores {
		w.Section(fmt.Sprintf("core%d", i))
		c.AppendState(w)
	}
	for i, sl := range s.slices {
		w.Section(fmt.Sprintf("slice%d", i))
		sl.AppendState(w)
	}
	for ch, ctrl := range s.ctrls {
		w.Section(fmt.Sprintf("ctrl%d", ch))
		ctrl.AppendState(w)
	}
	for ch, ctrl := range s.ctrls {
		w.Section(fmt.Sprintf("policy%d", ch))
		ctrl.Policy().AppendState(w)
	}
	data := w.Finish()
	// Room for the rest to grow by half before the next snapshot.
	s.snapRest = (len(data) - tags) * 3 / 2
	return data
}

// RestoreSystem rebuilds a system from cfg exactly as NewSystem would,
// then overwrites its mutable state from a snapshot taken by a system of
// the same configuration. Restore order matters: devices first (the
// controllers' queue replay reads their open rows), then cores, slices
// (waiter callbacks resolve against the cores), controllers (completion
// callbacks resolve against the slices), and finally the policies. A
// version-mismatched snapshot fails with snap.ErrVersion; a checked config
// is refused outright.
func RestoreSystem(cfg Config, data []byte) (*System, error) {
	cfg = cfg.WithDefaults()
	if cfg.Check {
		return nil, errCheckedSnapshot
	}
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	if err := r.Section("meta"); err != nil {
		return nil, err
	}
	s.now = r.I64()
	s.horizon = s.now // the cores' LoadState counts their state accounted to here
	s.stepped = r.I64()
	s.nextID = r.I64()
	s.loopSat = r.Int()
	s.loopBlind = r.Int()
	s.landing = r.Bool()
	nDevs := r.Int()
	nCores := r.Int()
	s.inMeasure = r.Bool()
	s.startStepped = r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nDevs != len(s.devs) || nCores != len(s.cores) {
		return nil, fmt.Errorf("sim: snapshot shape %d channels / %d cores, config builds %d / %d",
			nDevs, nCores, len(s.devs), len(s.cores))
	}
	if s.inMeasure {
		if err := r.Section("run"); err != nil {
			return nil, err
		}
		loadWindow(r, &s.start, nCores)
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	for ch, d := range s.devs {
		if err := r.Section(fmt.Sprintf("dev%d", ch)); err != nil {
			return nil, err
		}
		if err := d.LoadState(r); err != nil {
			return nil, err
		}
	}
	for i, c := range s.cores {
		if err := r.Section(fmt.Sprintf("core%d", i)); err != nil {
			return nil, err
		}
		if err := c.LoadState(r); err != nil {
			return nil, err
		}
	}
	for i, sl := range s.slices {
		if err := r.Section(fmt.Sprintf("slice%d", i)); err != nil {
			return nil, err
		}
		if err := sl.LoadState(r, s.cores[i].CompletionFor); err != nil {
			return nil, err
		}
	}
	lineBytes := uint64(s.cfg.Cache.LineBytes)
	resolve := func(coreID int, tag uint64) (func(now int64), error) {
		if coreID < 0 || coreID >= len(s.slices) {
			return nil, fmt.Errorf("sim: request names core %d of %d", coreID, len(s.slices))
		}
		return s.slices[coreID].FillCallback(tag / lineBytes)
	}
	for ch, ctrl := range s.ctrls {
		if err := r.Section(fmt.Sprintf("ctrl%d", ch)); err != nil {
			return nil, err
		}
		if err := ctrl.LoadState(r, resolve); err != nil {
			return nil, err
		}
	}
	for ch, ctrl := range s.ctrls {
		if err := r.Section(fmt.Sprintf("policy%d", ch)); err != nil {
			return nil, err
		}
		if err := ctrl.Policy().LoadState(r); err != nil {
			return nil, err
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	s.keepLoop = true
	return s, nil
}

// appendWindow serializes the measurement baseline captured at the warmup
// boundary: the cumulative per-core, per-slice, DRAM, and controller
// counters result() subtracts from the end-of-run totals.
func appendWindow(w *snap.Writer, sn *snapshot) {
	for _, p := range sn.counters() {
		w.I64(*p)
	}
}

func loadWindow(r *snap.Reader, sn *snapshot, nCores int) {
	sn.cores = make([]cpu.Stats, nCores)
	sn.cache = make([]cache.Stats, nCores)
	for _, p := range sn.counters() {
		*p = r.I64()
	}
}

// counters lists the baseline's counters in snapshot order: every core's,
// every slice's, then the DRAM and controller sums, each in its Stats
// declaration order.
func (sn *snapshot) counters() []*int64 {
	var ps []*int64
	for i := range sn.cores {
		ps = append(ps, stats.Counters(&sn.cores[i])...)
	}
	for i := range sn.cache {
		ps = append(ps, stats.Counters(&sn.cache[i])...)
	}
	ps = append(ps, stats.Counters(&sn.dram)...)
	return append(ps, stats.Counters(&sn.sched)...)
}
