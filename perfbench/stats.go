package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a percentile is only reported where at least this many
// observations exceed it, so one outlier cannot set it.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p (0 < p ≤
// 100) in n sorted samples: the smallest rank whose share of the samples
// is at least p percent.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave at least minBeyond samples
// beyond the nearest-rank percentile p.
func supports(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// percentile returns the nearest-rank percentile p of xs (which it does
// not modify); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
