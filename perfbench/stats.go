package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark treats it as measured rather than guessed.
const minBeyond = 10

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of values by
// linear interpolation between the closest ranks, the definition
// numpy and Python's statistics module call "inclusive". It sorts a
// copy, so callers may pass samples in arrival order. It returns NaN
// for no samples.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

// beyond returns how many of n samples lie strictly above the rank of
// the p-th percentile under percentile's interpolation.
func beyond(n int, p float64) int {
	rank := p * float64(n-1) / 100
	return n - 1 - int(math.Floor(rank))
}

// supported reports whether the p-th percentile of n samples has at
// least minBeyond samples above it.
func supported(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// tailPercentiles are the percentiles the benchmark reports a tail at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest of tailPercentiles that n
// samples support, and false when n supports none of them.
func highestPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if supported(n, p) {
			return p, true
		}
	}
	return 0, false
}

// setTimings records a workload's unit times (ms): their median is the
// bounded p50_ms, and the highest percentile the sample supports is
// noted.
func (r *report) setTimings(what string, ms []float64) {
	r.units = ms
	r.set("p50_ms", median(ms), len(ms))
	if p, ok := highestPercentile(len(ms)); ok {
		r.line("tail: p%g = %.4f ms over %d %s, the highest percentile with %d samples beyond it",
			p, percentile(ms, p), len(ms), what, minBeyond)
	}
}
