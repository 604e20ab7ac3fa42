package sweep

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/studies"
)

// benchSpace is a mid-sized space (7680 points) — big enough that the
// sweep spends its time in the encode/predict/reduce loop, small
// enough for -benchtime 1x smoke runs.
func benchSpace() *space.Space {
	return space.New("sweep-bench", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8, 16, 32, 64, 128}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5, 6}},
		{Name: "c", Kind: space.Continuous, Values: []float64{0.5, 1.0, 1.5, 2.0, 2.5}},
		{Name: "d", Kind: space.Cardinal, Values: []float64{16, 32, 64, 128}},
		{Name: "e", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

func benchBundle(b *testing.B) *bundle.Bundle {
	b.Helper()
	sp := benchSpace()
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	cfg.Seed = 3
	rng := stats.NewRNG(3)
	train := sp.Sample(rng, 60)
	enc := encoding.NewEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		c := sp.Choices(idx)
		y[i] = []float64{0.4 + 0.2*sp.Value(c, 0)/128 + 0.1*sp.Value(c, 1)*sp.Value(c, 2)}
	}
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	bd, err := bundle.New(sp, ens, bundle.Meta{Study: "bench", Metric: "perf"})
	if err != nil {
		b.Fatal(err)
	}
	return bd
}

// BenchmarkSweep measures chunked full-space sweep throughput (the
// default perf + confidence metric pair) at several worker counts, in
// DefaultChunkSize chunks, whose 512-row pieces the workers share;
// BENCH_sweep.json records the points/s baselines the CI
// bench-regression gate (cmd/benchdiff) compares against.
func BenchmarkSweep(b *testing.B) {
	bd := benchBundle(b)
	set, sp, err := Resolve(DefaultSpecs([]string{"m"}), map[string]*bundle.Bundle{"m": bd})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), sp, set, Config{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sp.Size())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkSweepReference pins the streaming engine's overhead against
// the materialize-everything baseline it replaced.
func BenchmarkSweepReference(b *testing.B) {
	bd := benchBundle(b)
	set, sp, err := Resolve(DefaultSpecs([]string{"m"}), map[string]*bundle.Bundle{"m": bd})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reference(sp, set, DefaultTopK); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sp.Size())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepMemory ranks the memory study's whole space (23,040
// points, 10 inputs) through goldenEnsemble in DefaultChunkSize chunks,
// every part at GOMAXPROCS workers (the sweeps at Workers 0, the
// encoded scoring at goldenEnsemble's own bound), and times three
// things in each iteration:
//   - "sweep-points/s": Run by the predicted mean alone, the paper's
//     best-configuration query. With one metric the reduction is light
//     (the frontier is the best point), so this shows the range path.
//   - "churn-points/s": Run by the mean and the variance (DefaultSpecs).
//     Over this untrained ensemble the frontier churns to 731 points,
//     so this shows the reduction. On a 2-vCPU AVX-512 Xeon it took
//     about 24 ms a sweep against 6 ms of encoded scoring with an
//     unsorted frontier offered row by row, and about 5.7 ms with the
//     sorted frontier and the columnar chunk reduction.
//   - "encoded-points/s": the scoring Run did before it scored by flat
//     index, EncodeRange plus MetricSet.Eval of the mean alone.
//
// The three alternate inside one loop so that the machine's drift moves
// them alike: BENCH_sweep.json gates the first two as same-run ratios to
// the third.
func BenchmarkSweepMemory(b *testing.B) {
	st, err := studies.ByName("memory")
	if err != nil {
		b.Fatal(err)
	}
	enc := encoding.NewEncoder(st.Space)
	bd, err := bundle.New(st.Space, goldenEnsemble(b, enc.Width()), bundle.Meta{Study: st.Name, Metric: "ipc"})
	if err != nil {
		b.Fatal(err)
	}
	bundles := map[string]*bundle.Bundle{"m": bd}
	set, sp, err := Resolve([]MetricSpec{{Model: "m"}}, bundles)
	if err != nil {
		b.Fatal(err)
	}
	churn, _, err := Resolve(DefaultSpecs([]string{"m"}), bundles)
	if err != nil {
		b.Fatal(err)
	}
	width := enc.Width()
	xs := make([]float64, DefaultChunkSize*width)
	cols := [][]float64{make([]float64, DefaultChunkSize)}
	view := make([][]float64, 1)
	var swept, churned, encoded time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now() //repolint:allow determinism -- benchmark timing: each iteration's wall time splits between its three parts
		if _, err := Run(context.Background(), sp, set, Config{}); err != nil {
			b.Fatal(err)
		}
		mid := time.Now() //repolint:allow determinism -- benchmark timing, as above
		if _, err := Run(context.Background(), sp, churn, Config{}); err != nil {
			b.Fatal(err)
		}
		late := time.Now() //repolint:allow determinism -- benchmark timing, as above
		for lo := 0; lo < sp.Size(); lo += DefaultChunkSize {
			rows := min(DefaultChunkSize, sp.Size()-lo)
			view[0] = cols[0][:rows]
			enc.EncodeRange(lo, rows, xs[:rows*width])
			set.Eval(xs[:rows*width], rows, view)
		}
		swept += mid.Sub(start)
		churned += late.Sub(mid)
		encoded += time.Since(late) //repolint:allow determinism -- benchmark timing, as above
	}
	points := float64(sp.Size()) * float64(b.N)
	b.ReportMetric(points/swept.Seconds(), "sweep-points/s")
	b.ReportMetric(points/churned.Seconds(), "churn-points/s")
	b.ReportMetric(points/encoded.Seconds(), "encoded-points/s")
}
