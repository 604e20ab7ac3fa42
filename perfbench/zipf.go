package main

import (
	"math"

	"repro/internal/stats"
)

// zipfSchedule returns the serve workload's request sequence: length
// design-point indices in [0, points), drawn with popularity ∝ 1/rank^s.
// Ranks are scattered over the index space by a permutation drawn from
// the seed, so the hot set is not one contiguous block of the space.
// The schedule is a pure function of its arguments.
func zipfSchedule(seed uint64, points, length int, s float64) []int32 {
	rng := stats.NewRNG(seed)
	scatter := rng.Perm(points)
	weights := make([]float64, points)
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -s)
	}
	table := stats.NewAlias(weights)
	out := make([]int32, length)
	for i := range out {
		out[i] = int32(scatter[table.Draw(rng)])
	}
	return out
}
