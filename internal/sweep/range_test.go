package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/studies"
)

// flagSpace has a single-valued axis first, a boolean axis, a one-hot
// axis mid-space and a single-valued axis last, so the range path's
// last level has one setting per parent.
func flagSpace() *space.Space {
	return space.New("flags", []space.Param{
		{Name: "fixed", Kind: space.Cardinal, Values: []float64{64}},
		{Name: "on", Kind: space.Boolean, Values: []float64{0, 1}},
		{Name: "policy", Kind: space.Nominal, Levels: []string{"lru", "fifo", "random"}},
		{Name: "ways", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8, 16}},
		{Name: "lat", Kind: space.Continuous, Values: []float64{1.5}},
	})
}

// TestRangeEvalMatchesEncoded compares core.RangeEvaluator with
// MetricSet.Eval over EncodeRange's rows (PredictBatch), bit for bit,
// at ensemble workers 1 and 3: whole spaces, 0–13-row windows at random
// starts, and 4096-row windows that start on the last row and in the
// middle of a prefix at every axis. It covers goldenEnsemble (weights
// on U[-2,2]) and a trained small-weight ensemble, on testSpace (a
// one-hot last axis), both studies (the processor study has a
// dependent axis) and flagSpace, for mean only, variance only and
// both; and, for both studies' whole spaces and short windows,
// goldenEnsemble with hidden weights ×300, whose rows take the
// sigmoid's scalar hand-off in either half.
func TestRangeEvalMatchesEncoded(t *testing.T) {
	perf, _ := testBundles(t)
	type evalCase struct {
		name  string
		sp    *space.Space
		ens   *core.Ensemble
		scale float64 // of scaledGoldenEnsemble's hidden weights, when ens is nil
	}
	cases := []evalCase{
		{"synth trained", perf.Space, perf.Ensemble, 0},
		{"flags golden", flagSpace(), nil, 1},
	}
	for _, st := range studies.All() {
		cases = append(cases, evalCase{st.Name + " golden", st.Space, nil, 1}, evalCase{st.Name + " golden ×300", st.Space, nil, 300})
	}
	rng := stats.NewRNG(0x5A4E)
	for _, c := range cases {
		enc := encoding.NewEncoder(c.sp)
		ens := c.ens
		if ens == nil {
			ens = scaledGoldenEnsemble(t, enc.Width(), c.scale)
		}
		defer ens.SetWorkers(ens.Workers())
		kindSets := [][]core.MetricKind{{core.MetricMean}, {core.MetricVariance}, {core.MetricMean, core.MetricVariance}}
		if c.scale > 1 {
			kindSets = kindSets[2:] // the hand-off is the case here, not the columns
		}
		for _, kinds := range kindSets {
			var metrics []core.Metric
			for i, k := range kinds {
				metrics = append(metrics, core.Metric{Name: fmt.Sprint("m", i), Ens: ens, Kind: k})
			}
			set, err := core.NewMetricSet(metrics)
			if err != nil {
				t.Fatal(err)
			}
			ev := set.NewRangeEvaluator(enc)
			if ev == nil {
				if cpufeat.AVX2 {
					t.Fatalf("%s: no range evaluator on an AVX2 CPU", c.name)
				}
				t.Skip("the range path needs AVX2")
			}
			size := c.sp.Size()
			windows := [][2]int{{0, size}}
			for i := 0; i < 40; i++ {
				rows := rng.Intn(14)
				windows = append(windows, [2]int{rng.Intn(size - rows + 1), rows})
			}
			stride := size
			for a := range c.sp.Params {
				if c.scale > 1 {
					break // the whole space crosses every carry already
				}
				stride /= c.sp.Params[a].Card()
				for _, lo := range []int{stride - 1, stride + stride/2} {
					if lo < size {
						windows = append(windows, [2]int{lo, min(4096, size-lo)})
					}
				}
			}
			for _, workers := range []int{1, 3} {
				ens.SetWorkers(workers)
				for _, w := range windows {
					checkRangeEval(t, fmt.Sprintf("%s, metrics %v, workers %d", c.name, kinds, workers), enc, set, ev, w[0], w[1])
				}
			}
		}
	}
}

// checkRangeEval scores rows [lo, lo+rows) both ways and compares every
// column bit for bit.
func checkRangeEval(t *testing.T, what string, enc *encoding.Encoder, set *core.MetricSet, ev *core.RangeEvaluator, lo, rows int) {
	t.Helper()
	got := make([][]float64, set.Len())
	want := make([][]float64, set.Len())
	for m := range got {
		got[m] = make([]float64, rows)
		want[m] = make([]float64, rows)
	}
	ev.Eval(lo, rows, got)
	set.Eval(enc.EncodeRange(lo, rows, nil), rows, want)
	for m := range want {
		for r := range want[m] {
			if math.Float64bits(got[m][r]) != math.Float64bits(want[m][r]) {
				t.Fatalf("%s: rows [%d,%d): metric %d at point %d: range %g (bits %x), encoded %g (bits %x)",
					what, lo, lo+rows, m, lo+r, got[m][r], math.Float64bits(got[m][r]), want[m][r], math.Float64bits(want[m][r]))
			}
		}
	}
}

// TestRunRejectsInfVarianceBelowFront: the last point of an 8-point
// space has a finite mean below every other point's and +Inf variance,
// so the chunk frontier's front point dominates it on every metric. A
// reduction that compared it with that point before checking
// finiteness would drop it silently; the sweep must fail naming it, at
// workers 1 and 4.
func TestRunRejectsInfVarianceBelowFront(t *testing.T) {
	sp := space.New("inf-variance", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{0, 1, 2, 3, 4, 5, 6, 7}},
	})
	// Hidden unit 0 steps from 0 to 1 between a = 6 and a = 7 (input
	// 6/7 and 1); the members' outputs are 1 + v·unit0 with v = 1e200,
	// -1e200 and 0, so every point predicts exactly 1 with variance 0
	// except point 7: mean 1/3, and a squared deviation near 1e400.
	doc := struct {
		Version int               `json:"version"`
		Outputs int               `json:"outputs"`
		Scalers []encoding.Scaler `json:"scalers"`
		Nets    []json.RawMessage `json:"nets"`
	}{Version: 1, Outputs: 1, Scalers: []encoding.Scaler{{Lo: 0, Hi: 1}}}
	for _, v := range []float64{1e200, -1e200, 0} {
		hidden := make([]float64, 16*2)
		hidden[0], hidden[1] = 7000, -6500
		out := make([]float64, 17)
		out[0], out[16] = v, 1
		net, err := json.Marshal(map[string]any{
			"version": 1,
			"config":  core.DefaultModelConfig().NetConfig(1, 1),
			"weights": [][]float64{hidden, out},
		})
		if err != nil {
			t.Fatal(err)
		}
		doc.Nets = append(doc.Nets, net)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := core.LoadEnsemble(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(sp, ens, bundle.Meta{Study: "inf", Metric: "perf"})
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := Resolve(DefaultSpecs([]string{"m"}), map[string]*bundle.Bundle{"m": b})
	if err != nil {
		t.Fatal(err)
	}
	cols := [][]float64{make([]float64, 8), make([]float64, 8)}
	set.Eval(encoding.NewEncoder(sp).EncodeRange(0, 8, nil), 8, cols)
	if cols[0][7] >= cols[0][6] || !math.IsInf(cols[1][7], 1) || cols[1][6] != 0 {
		t.Fatalf("fixture predicts mean %v and variance %v; want point 7 below point 6 with +Inf variance", cols[0], cols[1])
	}
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), sp, set, Config{ChunkSize: 3, Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "design point 7 has non-finite value +Inf") {
			t.Fatalf("workers=%d: err %v, want the non-finite error naming design point 7", workers, err)
		}
	}
}
