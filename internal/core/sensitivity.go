package core

import (
	"sort"

	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
)

// AxisSensitivity summarizes how strongly one design parameter moves
// the predicted metric: over a sample of base points, each axis is
// swept through all of its settings while everything else stays fixed,
// and the spread of predictions is recorded. This is the
// model-powered version of the sensitivity study that motivates the
// whole paper (§2) — a full per-axis sweep costs network evaluations
// instead of simulations.
type AxisSensitivity struct {
	Param     int     // axis index in the space
	Name      string  // axis name
	MeanSwing float64 // mean (max-min)/min predicted metric over base points, in %
	MaxSwing  float64 // worst-case swing observed, in %
	// Bases is the number of base points swept; ValidBases counts the
	// ones whose swept minimum was positive, i.e. where a percentage
	// swing is defined at all. With linear (non-log) targets a model can
	// predict ≤ 0 along a whole sweep, and an axis that loses every
	// base carries no swing information — Degenerate marks that case so
	// it is never mistaken for a measured "no influence".
	Bases      int
	ValidBases int
	Degenerate bool
	Rank       int // 1 = most influential; degenerate axes rank after all measured ones
}

// Sensitivity sweeps every axis of the space through the trained
// ensemble at `bases` random base points and ranks the axes by mean
// predicted swing. It performs Σ cardinalities × bases predictions and
// zero simulations; each axis's full sweep (bases × settings points) is
// scored by one batched prediction call.
func Sensitivity(ens *Ensemble, sp *space.Space, bases int, seed uint64) []AxisSensitivity {
	enc := encoding.NewEncoder(sp)
	rng := stats.NewRNG(seed ^ 0x5E45)
	if bases <= 0 {
		bases = 20
	}
	out := make([]AxisSensitivity, sp.NumParams())
	width := enc.Width()
	var xs, preds []float64
	for p := 0; p < sp.NumParams(); p++ {
		card := sp.Params[p].Card()
		rows := bases * card
		if need := rows * width; cap(xs) < need {
			xs = make([]float64, need)
		}
		xs = xs[:rows*width]
		for b := 0; b < bases; b++ {
			choices := sp.Choices(rng.Intn(sp.Size()))
			for c := 0; c < card; c++ {
				choices[p] = c
				enc.Encode(choices, xs[(b*card+c)*width:(b*card+c+1)*width])
			}
		}
		if cap(preds) < rows {
			preds = make([]float64, rows)
		}
		preds = preds[:rows]
		ens.PredictBatch(0, xs, rows, preds, nil)

		var swings []float64
		var worst float64
		for b := 0; b < bases; b++ {
			lo, hi := 0.0, 0.0
			for c := 0; c < card; c++ {
				v := preds[b*card+c]
				if c == 0 || v < lo {
					lo = v
				}
				if c == 0 || v > hi {
					hi = v
				}
			}
			if lo > 0 {
				s := (hi - lo) / lo * 100
				swings = append(swings, s)
				if s > worst {
					worst = s
				}
			}
		}
		out[p] = AxisSensitivity{
			Param:      p,
			Name:       sp.Params[p].Name,
			MaxSwing:   worst,
			Bases:      bases,
			ValidBases: len(swings),
			Degenerate: len(swings) == 0,
		}
		if len(swings) > 0 {
			out[p].MeanSwing = stats.Mean(swings)
		}
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := out[order[a]], out[order[b]]
		// Axes with measured swings rank ahead of degenerate ones, whose
		// MeanSwing of 0 is "unknown", not "uninfluential".
		if sa.Degenerate != sb.Degenerate {
			return !sa.Degenerate
		}
		return sa.MeanSwing > sb.MeanSwing
	})
	for rank, p := range order {
		out[p].Rank = rank + 1
	}
	return out
}

// RankedSensitivities returns the axes sorted most-influential first.
func RankedSensitivities(s []AxisSensitivity) []AxisSensitivity {
	out := append([]AxisSensitivity(nil), s...)
	sort.Slice(out, func(a, b int) bool { return out[a].Rank < out[b].Rank })
	return out
}
