package dram

// Stats counts commands issued to a device; the power model converts these
// into energy.
type Stats struct {
	Commands int64
	Acts     int64
	Pres     int64
	Reads    int64
	Writes   int64
	RefABs   int64
	RefPBs   int64
}

// Accesses is the number of column commands served (reads + writes).
func (s Stats) Accesses() int64 { return s.Reads + s.Writes }
