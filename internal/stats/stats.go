// Package stats provides the small numeric helpers the experiment harness
// uses to summarize per-workload results (means, geometric means, extrema,
// percentage improvements), and the counter helpers the simulator uses to
// window and checkpoint its components' Stats structs (Counters, Sub, Add).
package stats

import (
	"math"
	"sort"
)

// Mean is the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Gmean is the geometric mean; 0 for an empty slice or any non-positive
// element.
func Gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Max returns the maximum; 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum; 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Sorted returns an ascending copy.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// PctImprovement converts a ratio new/old into a percentage improvement.
func PctImprovement(ratio float64) float64 { return (ratio - 1) * 100 }

// Ratios divides element-wise: out[i] = num[i] / den[i].
func Ratios(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		if den[i] != 0 {
			out[i] = num[i] / den[i]
		}
	}
	return out
}
