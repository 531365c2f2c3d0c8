package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" definition); NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if frac := pos - float64(lo); frac > 0 {
		return s[lo] + (s[lo+1]-s[lo])*frac
	}
	return s[lo]
}

// midMean returns the mean of the middle half of xs (the interquartile
// mean); NaN for an empty slice. Unlike the median it moves smoothly when
// the samples fall into two clusters in varying proportion.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// tailQuantile is the highest quantile of n samples that still leaves at
// least ten samples above it — the tail a run can actually resolve — but
// never below the median: a run of 21 samples or fewer resolves no tail
// and reports its median.
func tailQuantile(n int) float64 {
	if n <= 21 {
		return 0.5
	}
	return float64(n-1-10) / float64(n-1)
}
