package core

import (
	"strings"
	"testing"

	"repro/internal/space"
	"repro/internal/stats"
)

// quickModel trims training further than fastModel: metric-adapter
// tests only need a functioning ensemble, not an accurate one.
func quickModel(seed uint64) ModelConfig {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 20
	cfg.Seed = seed
	return cfg
}

// synthEnergy is a second smooth metric over the synthetic space,
// standing in for predicted energy: larger configurations cost more.
func synthEnergy(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	return 0.2 + 0.05*sp.Value(c, 0) + 0.1*sp.Value(c, 1)*sp.Value(c, 2)
}

// trainMultiTask builds a two-output ensemble (IPC-like + energy-like)
// over the synthetic space.
func trainMultiTask(t *testing.T, seed uint64) *Ensemble {
	t.Helper()
	sp := synthSpace()
	rng := stats.NewRNG(seed)
	train := sp.Sample(rng, 60)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx), synthEnergy(sp, idx)}
	}
	ens, err := TrainEnsemble(x, y, quickModel(seed^0x51))
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

// TestPredictOutputBatchRejectsBadColumn: PredictBatch panics on
// out-of-range output columns rather than silently reading a wrong
// scaler.
func TestPredictOutputBatchRejectsBadColumn(t *testing.T) {
	ens := trainMultiTask(t, 13)
	for _, bad := range []int{-1, ens.Outputs()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("output %d accepted", bad)
				}
			}()
			ens.PredictBatch(bad, nil, 0, nil, nil)
		}()
	}
}

// TestMetricSetEvalMatchesDirectCalls pins every adapter column to a
// PredictBatch call that asks for that column alone, bit for bit:
// across two models, a shared-sweep (mean + variance of one output)
// group, a mirrored duplicate column, and variance-only groups.
func TestMetricSetEvalMatchesDirectCalls(t *testing.T) {
	perf := trainMultiTask(t, 21)
	energy := trainMultiTask(t, 22)
	sets := [][]Metric{
		{
			{Name: "perf", Ens: perf},
			{Name: "conf", Ens: perf, Kind: MetricVariance, Minimize: true},
			{Name: "energy", Ens: energy, Output: 1, Minimize: true},
			{Name: "perf2", Ens: perf}, // duplicate column: shares perf's sweep
		},
		{{Name: "conf", Ens: perf, Kind: MetricVariance}},
		{
			{Name: "conf", Ens: perf, Kind: MetricVariance},
			{Name: "conf-min", Ens: perf, Kind: MetricVariance, Minimize: true},
			{Name: "energy-conf", Ens: energy, Output: 1, Kind: MetricVariance},
		},
	}
	sp := synthSpace()
	enc := newTestEncoder(sp)
	rows := 50
	xs := enc.EncodeRange(0, rows, nil)
	for i, metrics := range sets {
		set, err := NewMetricSet(metrics)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([][]float64, set.Len())
		for m := range cols {
			cols[m] = make([]float64, rows)
		}
		set.Eval(xs, rows, cols)
		for m, metric := range metrics {
			want := make([]float64, rows)
			if metric.Kind == MetricVariance {
				metric.Ens.PredictBatch(metric.Output, xs, rows, nil, want)
			} else {
				metric.Ens.PredictBatch(metric.Output, xs, rows, want, nil)
			}
			for r := 0; r < rows; r++ {
				if cols[m][r] != want[r] {
					t.Fatalf("set %d row %d: %s column %v != %v", i, r, metric.Name, cols[m][r], want[r])
				}
			}
		}
	}

	set, err := NewMetricSet(sets[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Names(); len(got) != 4 || got[0] != "perf" || got[2] != "energy" {
		t.Fatalf("names = %v", got)
	}
	if dir := set.Minimize(); dir[0] || !dir[1] || !dir[2] || dir[3] {
		t.Fatalf("directions = %v", set.Minimize())
	}
}

// TestMetricSetValidation rejects malformed metric lists with errors
// that name the offender.
func TestMetricSetValidation(t *testing.T) {
	ens := trainMultiTask(t, 31)
	cases := []struct {
		name    string
		metrics []Metric
		want    string
	}{
		{"empty", nil, "at least one"},
		{"no name", []Metric{{Ens: ens}}, "no name"},
		{"dup name", []Metric{{Name: "a", Ens: ens}, {Name: "a", Ens: ens}}, "duplicate"},
		{"nil ensemble", []Metric{{Name: "a"}}, "no ensemble"},
		{"bad output", []Metric{{Name: "a", Ens: ens, Output: 9}}, "output 9"},
		{"bad kind", []Metric{{Name: "a", Ens: ens, Kind: MetricKind(7)}}, "unknown kind"},
	}
	for _, c := range cases {
		if _, err := NewMetricSet(c.metrics); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
