package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine, and
// its speed drifts with what its neighbours do: the same round of the same
// code took 25-35% longer from one minute to the next. Every run therefore
// also times a fixed reference kernel throughout every round (before each
// simulation and each cold or extend request, and once per pass of the
// warm phase over its specs) and reports host times at a nominal host
// speed:
//
//	reported = measured × refNominalMs / (median kernel time in that phase)
//
// The kernel is compiled from this file, not from the repository, so a
// change to the program under test does not change it. It sorts a
// cache-resident slice of integers: CPU-bound work, like the simulator's.
// Its time tracked the simulator's drift across runs (correlation 0.8),
// where a memory-bound kernel (random read-modify-write over 2-16 MiB) did
// not track it and made spreads worse.
const (
	refLen = 1 << 14 // integers sorted per call: 128 KiB
	// refNominalMs is the kernel's time at the nominal host speed: about
	// its median on a quiet 2-vCPU VM (go1.24, linux/amd64), so that the
	// benchmark's numbers there read as wall time.
	refNominalMs = 1.5
)

// refKernel is the reference kernel's buffer, allocated once so that no
// call allocates.
var refKernel = make([]int, refLen)

// refTimeMs times one call of the reference kernel: a sort of the same
// pseudo-random integers every time, so every call does identical work.
// Filling the buffer, which is not timed, brings it into cache, so what the
// program under test left in the caches does not change the kernel's time.
func refTimeMs() float64 {
	x := uint64(88172645463325252)
	for i := range refKernel {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refKernel[i] = int(x >> 1)
	}
	t := time.Now()
	slices.Sort(refKernel)
	return msSince(t)
}
