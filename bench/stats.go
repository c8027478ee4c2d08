package main

import (
	"math"
	"sort"

	"github.com/spatialcrowd/tamp/internal/stats"
)

// K0 is the yardstick's duration on the quiet reference host, in seconds.
// Every corrected duration is expressed in this host's time.
const K0 = 0.011

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// hostFactor is what a duration measured between two yardstick readings is
// multiplied by to express it in the reference host's time: the yardstick's
// duration there over the mean of the two readings.
func hostFactor(reference, before, after float64) float64 {
	return reference / ((before + after) / 2)
}

// spread is the interquartile range of xs as a share of its median, with the
// quartiles Python's statistics.quantiles(xs, n=4) returns (the exclusive
// method), which is what the acceptance check of the benchmark uses. Fewer
// than two values, or a zero median, give 0.
func spread(xs []float64) float64 {
	n := len(xs)
	med := stats.Median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(xs)
	cut := func(k int) float64 {
		j := k * (n + 1) / 4 // 1-based order statistic below the cut
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j // distance past it, in quarters
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}
