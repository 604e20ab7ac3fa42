package core

import (
	"math"
	"testing"

	"repro/internal/ann"
	"repro/internal/stats"
)

// trainSynthEnsemble builds a small trained ensemble over the synthetic
// space for prediction tests, plus a sample of encoded points.
func trainSynthEnsemble(t *testing.T, cfg ModelConfig, seed uint64) (*Ensemble, [][]float64) {
	t.Helper()
	sp := synthSpace()
	rng := stats.NewRNG(seed)
	train := sp.Sample(rng, 60)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Encoded probes over the rest of the space.
	probes := make([][]float64, 0, 300)
	for idx := 0; idx < sp.Size() && len(probes) < 300; idx += 2 {
		probes = append(probes, enc.EncodeIndex(idx, nil))
	}
	return ens, probes
}

func flatten(points [][]float64) ([]float64, int) {
	if len(points) == 0 {
		return nil, 0
	}
	w := len(points[0])
	out := make([]float64, len(points)*w)
	for i, p := range points {
		copy(out[i*w:(i+1)*w], p)
	}
	return out, len(points)
}

// perPointVariance is PredictVariance's member loop on any output
// column: the per-point reference for batched variance on auxiliary
// outputs, which have no per-point method of their own.
func perPointVariance(e *Ensemble, x []float64, output int) (mean, variance float64) {
	s := ann.NewScratch()
	preds := make([]float64, len(e.nets))
	var sum float64
	for i, n := range e.nets {
		preds[i] = e.untransform(e.scalers[output].Unscale(n.ForwardBatch(x, 1, s)[output]))
		sum += preds[i]
	}
	mean = sum / float64(len(preds))
	var ss float64
	for _, p := range preds {
		d := p - mean
		ss += d * d
	}
	return mean, ss / float64(len(preds))
}

// predictBatchTable is the batch/per-point parity table behind the
// PredictBatch tests. For every output column of a two-output
// ensemble, several worker counts and batch sizes up to three
// predictChunk chunks, a call with the given buffers ("mean", "variance"
// or "both") must write values bit-identical to the
// per-point methods — means to PredictAll, output-0 variances to
// PredictVariance, and the rest to PredictVariance's loop on their
// column.
func predictBatchTable(t *testing.T, cols string) {
	t.Helper()
	ens := trainMultiTask(t, 11)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	width := enc.Width()
	// The synthetic space has 120 points; tiling it to 1100 rows runs
	// the kernel over two full chunks and a partial one.
	const rows = 1100
	xs := make([]float64, rows*width)
	for r := 0; r < rows; r++ {
		enc.EncodeIndex(r%sp.Size(), xs[r*width:(r+1)*width])
	}

	type ref struct{ mean, variance float64 }
	want := make([][]ref, ens.Outputs()) // want[o][idx]
	for idx := 0; idx < sp.Size(); idx++ {
		x := xs[idx*width : (idx+1)*width]
		all := ens.PredictAll(x)
		for o := range want {
			m, v := perPointVariance(ens, x, o)
			if m != all[o] {
				t.Fatalf("point %d output %d: reference mean %v != PredictAll %v", idx, o, m, all[o])
			}
			want[o] = append(want[o], ref{m, v})
		}
		if m, v := ens.PredictVariance(x); m != want[0][idx].mean || v != want[0][idx].variance {
			t.Fatalf("point %d: reference (%v, %v) != PredictVariance (%v, %v)", idx, want[0][idx].mean, want[0][idx].variance, m, v)
		}
	}
	for _, workers := range []int{1, 4} {
		ens.SetWorkers(workers)
		for _, n := range []int{0, 1, 7, sp.Size(), rows} {
			for o := 0; o < ens.Outputs(); o++ {
				var mean, variance []float64
				if cols != "variance" {
					mean = make([]float64, n)
				}
				if cols != "mean" {
					variance = make([]float64, n)
				}
				ens.PredictBatch(o, xs[:n*width], n, mean, variance)
				for r := 0; r < n; r++ {
					w := want[o][r%sp.Size()]
					if mean != nil && mean[r] != w.mean {
						t.Fatalf("workers=%d rows=%d output %d %s: row %d mean %v, want %v", workers, n, o, cols, r, mean[r], w.mean)
					}
					if variance != nil && variance[r] != w.variance {
						t.Fatalf("workers=%d rows=%d output %d %s: row %d variance %v, want %v", workers, n, o, cols, r, variance[r], w.variance)
					}
				}
			}
		}
	}
}

// TestPredictBatchMatchesPredict: scoring a batch is a pure
// performance change — a call that fills both buffers matches the
// per-point methods bit for bit.
func TestPredictBatchMatchesPredict(t *testing.T) { predictBatchTable(t, "both") }

// TestPredictOutputBatchMatchesPredictAll: a mean-only call matches
// PredictAll on every output column.
func TestPredictOutputBatchMatchesPredictAll(t *testing.T) { predictBatchTable(t, "mean") }

// TestPredictVarianceBatchMatchesPerPoint: the active-learning
// disagreement signal survives batching unchanged, also when the
// caller passes no mean buffer.
func TestPredictVarianceBatchMatchesPerPoint(t *testing.T) { predictBatchTable(t, "variance") }

// TestPredictOutputVarianceBatchColumns: on every output column the
// two buffers are independent — a call that fills both
// writes the bits a mean-only and a variance-only call write — and
// every variance is non-negative.
func TestPredictOutputVarianceBatchColumns(t *testing.T) {
	ens := trainMultiTask(t, 12)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	var probes [][]float64
	for idx := 0; idx < sp.Size(); idx += 7 {
		probes = append(probes, enc.EncodeIndex(idx, nil))
	}
	xs, rows := flatten(probes)
	for o := 0; o < ens.Outputs(); o++ {
		mean, variance := make([]float64, rows), make([]float64, rows)
		ens.PredictBatch(o, xs, rows, mean, variance)
		meanOnly, varianceOnly := make([]float64, rows), make([]float64, rows)
		ens.PredictBatch(o, xs, rows, meanOnly, nil)
		ens.PredictBatch(o, xs, rows, nil, varianceOnly)
		for i := range mean {
			if mean[i] != meanOnly[i] {
				t.Fatalf("output %d point %d: mean %v, mean-only call %v", o, i, mean[i], meanOnly[i])
			}
			if variance[i] != varianceOnly[i] {
				t.Fatalf("output %d point %d: variance %v, variance-only call %v", o, i, variance[i], varianceOnly[i])
			}
			if variance[i] < 0 {
				t.Fatalf("output %d point %d: negative variance %v", o, i, variance[i])
			}
		}
	}
}

// TestPredictBatchWorkersInvariant: sharding a batch across goroutines
// must not change a single bit of the output (rows are independent).
func TestPredictBatchWorkersInvariant(t *testing.T) {
	cfg := fastModel()
	cfg.Seed = 33
	ens, probes := trainSynthEnsemble(t, cfg, 9)
	xs, rows := flatten(probes)

	ens.SetWorkers(1)
	serial := make([]float64, rows)
	ens.PredictBatch(0, xs, rows, serial, nil)
	for _, w := range []int{2, 4, 8} {
		ens.SetWorkers(w)
		got := make([]float64, rows)
		ens.PredictBatch(0, xs, rows, got, nil)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: point %d differs: %v vs %v", w, i, got[i], serial[i])
			}
		}
	}
}

// TestParallelFoldTrainingMatchesSequential is the reproducibility half
// of the parallel-training contract: per-fold RNG seeds are derived
// from the configuration alone, so a fully sequential run (Workers=1)
// and a maximally parallel run must produce identical ensembles —
// identical predictions and identical cross-validation estimates.
func TestParallelFoldTrainingMatchesSequential(t *testing.T) {
	sp := synthSpace()
	rng := stats.NewRNG(12)
	train := sp.Sample(rng, 50)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	cfg := fastModel()
	cfg.Seed = 1234

	cfg.Workers = 1
	seq, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Estimate() != par.Estimate() {
		t.Fatalf("estimates differ: sequential %+v vs parallel %+v", seq.Estimate(), par.Estimate())
	}
	for idx := 0; idx < sp.Size(); idx += 7 {
		p := enc.EncodeIndex(idx, nil)
		if seq.Predict(p) != par.Predict(p) {
			t.Fatalf("point %d: sequential %v vs parallel %v", idx, seq.Predict(p), par.Predict(p))
		}
	}
	if seq.Workers() != 1 || par.Workers() != 8 {
		t.Fatalf("worker bounds not recorded: %d/%d", seq.Workers(), par.Workers())
	}
}

// TestPredictBatchEmptyAndValidation covers the degenerate and error
// paths of the batched API: zero rows score nothing, and a batch or
// buffer of the wrong size panics.
func TestPredictBatchEmptyAndValidation(t *testing.T) {
	cfg := fastModel()
	cfg.Seed = 35
	ens, probes := trainSynthEnsemble(t, cfg, 11)
	ens.PredictBatch(0, nil, 0, nil, nil)
	ens.PredictBatch(0, nil, 0, []float64{}, []float64{})
	xs, _ := flatten(probes[:2])
	for _, c := range []struct {
		name           string
		xs             []float64
		rows           int
		mean, variance []float64
	}{
		{"mis-sized batch", make([]float64, 3), 2, make([]float64, 2), nil},
		{"negative rows", nil, -1, nil, nil},
		{"short mean", xs, 2, make([]float64, 1), nil},
		{"empty mean", xs, 2, []float64{}, make([]float64, 2)},
		{"long variance", xs, 2, make([]float64, 2), make([]float64, 3)},
		{"short variance only", xs, 2, nil, make([]float64, 1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			ens.PredictBatch(0, c.xs, c.rows, c.mean, c.variance)
		}()
	}
}

// TestTrueErrorSkipsZeroTruth pins the held-out evaluation helper the
// cmds share: batched predictions against ground truth, with zero-truth
// points excluded from the statistics (percentage error is undefined)
// and reported via the used count.
func TestTrueErrorSkipsZeroTruth(t *testing.T) {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, _ := trainSynthEnsemble(t, cfg, 31)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	idxs := []int{0, 5, 10, 15}
	truth := make([]float64, len(idxs))
	for i, idx := range idxs {
		truth[i] = synthTarget(sp, idx)
	}
	truth[2] = 0 // undefined percentage error; must be skipped, not divided by

	mean, sd, used := ens.TrueError(enc, idxs, truth)
	if used != len(idxs)-1 {
		t.Fatalf("used = %d, want %d", used, len(idxs)-1)
	}
	// Reference computation over the non-zero points.
	preds := ens.PredictIndices(enc, idxs)
	var errs []float64
	for i := range idxs {
		if truth[i] == 0 {
			continue
		}
		errs = append(errs, math.Abs(preds[i]-truth[i])/truth[i]*100)
	}
	wantMean, wantSD := stats.MeanStd(errs)
	if mean != wantMean || sd != wantSD {
		t.Fatalf("TrueError = (%v,%v), reference = (%v,%v)", mean, sd, wantMean, wantSD)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("TrueError accepted mismatched idxs/truth lengths")
		}
	}()
	ens.TrueError(enc, idxs, truth[:2])
}
