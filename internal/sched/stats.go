package sched

// Stats accumulates controller-level counters.
type Stats struct {
	ReadsServed  int64
	WritesServed int64

	ReadLatencySum  int64 // sum of read (arrive -> data) latencies, DRAM cycles
	WriteLatencySum int64

	DemandSlots  int64 // command-bus slots spent on demand commands
	RefreshSlots int64 // command-bus slots spent by the refresh policy

	ForwardedReads       int64 // reads served from the write queue
	MergedWrites         int64
	ReadQueueFullStalls  int64
	WriteQueueFullStalls int64

	WriteModeEntries   int64
	WriteModeCycles    int64
	OpportunisticDrain int64 // cycles spent draining writes outside writeback mode
}

// AvgReadLatency is the mean read latency in DRAM cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.ReadsServed == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.ReadsServed)
}
