package dram

import (
	"fmt"

	"dsarp/internal/snap"
	"dsarp/internal/stats"
)

// AppendState writes the device's mutable state: every per-bank and
// per-rank timing register, the global bus/turnaround registers, the
// command statistics, and each rank's refresh-unit counters. Geometry,
// timing parameters, and options are construction-derived and omitted.
// The invariant checker does not serialize; snapshots of checked runs are
// refused at the sim layer.
func (d *Device) AppendState(w *snap.Writer) {
	for i := range d.openRow {
		w.Int(d.openRow[i])
		w.I64(d.actTime[i])
		w.I64(d.bankNextAct[i])
		w.I64(d.nextReadAt[i])
		w.I64(d.nextWriteAt[i])
		w.I64(d.nextPreAt[i])
		w.I64(d.refUntil[i])
		w.Int(d.refSubarray[i])
	}
	for r := range d.rankNextAct {
		w.I64(d.rankNextAct[r])
		w.I64(d.rankRefUntil[r])
		w.I64(d.pbRefUntil[r])
		w.Int(d.actCount[r])
	}
	for _, v := range d.actRing {
		w.I64(v)
	}
	w.I64(d.busFreeAt)
	w.I64(d.nextRead)
	w.I64(d.nextWrite)
	for _, p := range stats.Counters(&d.stats) {
		w.I64(*p)
	}
	for _, u := range d.units {
		u.AppendState(w)
	}
}

// LoadState restores the state written by AppendState onto a freshly
// built device of the same geometry and timing.
func (d *Device) LoadState(r *snap.Reader) error {
	for i := range d.openRow {
		d.openRow[i] = r.Int()
		d.actTime[i] = r.I64()
		d.bankNextAct[i] = r.I64()
		d.nextReadAt[i] = r.I64()
		d.nextWriteAt[i] = r.I64()
		d.nextPreAt[i] = r.I64()
		d.refUntil[i] = r.I64()
		d.refSubarray[i] = r.Int()
		if row := d.openRow[i]; row != NoRow && (row < 0 || row >= d.geom.RowsPerBank) {
			return fmt.Errorf("dram: snapshot open row %d out of range", row)
		}
	}
	for rk := range d.rankNextAct {
		d.rankNextAct[rk] = r.I64()
		d.rankRefUntil[rk] = r.I64()
		d.pbRefUntil[rk] = r.I64()
		d.actCount[rk] = r.Int()
	}
	for i := range d.actRing {
		d.actRing[i] = r.I64()
	}
	d.busFreeAt = r.I64()
	d.nextRead = r.I64()
	d.nextWrite = r.I64()
	for _, p := range stats.Counters(&d.stats) {
		*p = r.I64()
	}
	for _, u := range d.units {
		if err := u.LoadState(r); err != nil {
			return err
		}
	}
	return r.Err()
}
