package core

import (
	"dsarp/internal/snap"
)

// This file implements snap.Codec for every refresh policy. A policy
// serializes only what its constructor cannot rederive: timer positions,
// postponement debt, forced/blocked flags, and (for DARP) the rng draw
// count and per-bank issue counters. Derived caches — DARP's pull-in
// eligibility lists and write-mode pick bounds — are dropped on restore:
// rebuilding them is exact, draws no randomness, and feeds no NextDeadline
// answer, so a restored run re-derives identical values. LoadState never
// calls NoteBlockedChanged: the controller's blocked epoch is restored to
// the cold run's exact value after the replayed queue rebuild, and the
// flags loaded here are the ones that epoch already accounts for.

func appendI64s(w *snap.Writer, vs []int64) {
	for _, v := range vs {
		w.I64(v)
	}
}

func loadI64s(r *snap.Reader, vs []int64) {
	for i := range vs {
		vs[i] = r.I64()
	}
}

func appendBools(w *snap.Writer, vs []bool) {
	for _, v := range vs {
		w.Bool(v)
	}
}

func loadBools(r *snap.Reader, vs []bool) {
	for i := range vs {
		vs[i] = r.Bool()
	}
}

// AppendState implements snap.Codec.
func (p *AllBank) AppendState(w *snap.Writer) {
	appendI64s(w, p.next)
	appendBools(w, p.forced)
}

// LoadState implements snap.Codec.
func (p *AllBank) LoadState(r *snap.Reader) error {
	loadI64s(r, p.next)
	loadBools(r, p.forced)
	return r.Err()
}

// AppendState implements snap.Codec.
func (p *PerBank) AppendState(w *snap.Writer) {
	appendI64s(w, p.next)
	appendI64s(w, p.owedN)
}

// LoadState implements snap.Codec.
func (p *PerBank) LoadState(r *snap.Reader) error {
	loadI64s(r, p.next)
	loadI64s(r, p.owedN)
	return r.Err()
}

// AppendState implements snap.Codec. The idle-time averages are float64
// and serialize as IEEE-754 bits, so restore is bit-exact.
func (p *Elastic) AppendState(w *snap.Writer) {
	appendI64s(w, p.next)
	appendI64s(w, p.owedN)
	appendI64s(w, p.idleRun)
	for _, v := range p.avgIdle {
		w.F64(v)
	}
	appendBools(w, p.forced)
}

// LoadState implements snap.Codec.
func (p *Elastic) LoadState(r *snap.Reader) error {
	loadI64s(r, p.next)
	loadI64s(r, p.owedN)
	loadI64s(r, p.idleRun)
	for i := range p.avgIdle {
		p.avgIdle[i] = r.F64()
	}
	loadBools(r, p.forced)
	return r.Err()
}

// AppendState implements snap.Codec.
func (p *Adaptive) AppendState(w *snap.Writer) {
	appendI64s(w, p.next)
	appendI64s(w, p.owedN)
	for _, v := range p.quarters {
		w.Int(v)
	}
	appendBools(w, p.forced)
}

// LoadState implements snap.Codec.
func (p *Adaptive) LoadState(r *snap.Reader) error {
	loadI64s(r, p.next)
	loadI64s(r, p.owedN)
	for i := range p.quarters {
		p.quarters[i] = r.Int()
	}
	loadBools(r, p.forced)
	return r.Err()
}

// AppendState implements snap.Codec.
func (p *Pausing) AppendState(w *snap.Writer) {
	appendI64s(w, p.next)
	appendI64s(w, p.owedN)
	for _, v := range p.segs {
		w.Int(v)
	}
	appendBools(w, p.forced)
}

// LoadState implements snap.Codec.
func (p *Pausing) LoadState(r *snap.Reader) error {
	loadI64s(r, p.next)
	loadI64s(r, p.owedN)
	for i := range p.segs {
		p.segs[i] = r.Int()
	}
	loadBools(r, p.forced)
	return r.Err()
}

// AppendState implements snap.Codec. The bank schedules' credit thresholds
// are functions of the issue counters and the construction-time phases, so
// only the counters travel; LoadState rederives the thresholds.
func (p *DARP) AppendState(w *snap.Writer) {
	w.U64(p.rng.Draws())
	for _, sch := range p.scheds {
		appendI64s(w, sch.issued)
	}
	for _, row := range p.forced {
		appendBools(w, row)
	}
	appendI64s(w, p.slotAt)
}

// LoadState implements snap.Codec.
func (p *DARP) LoadState(r *snap.Reader) error {
	p.rng.Restore(r.U64())
	for _, sch := range p.scheds {
		loadI64s(r, sch.issued)
		for b := range sch.issued {
			sch.recalcThresholds(b)
		}
		sch.recalcMinForced()
	}
	for _, row := range p.forced {
		loadBools(r, row)
	}
	loadI64s(r, p.slotAt)
	p.eligValid = false
	p.wmValid = false
	return r.Err()
}
