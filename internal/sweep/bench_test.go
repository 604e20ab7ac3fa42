package sweep

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
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
	// The engine owns the parallelism under benchmark; a fixed
	// single-worker ensemble keeps the workers=N scaling attributable
	// to the sweep pool alone.
	cfg.Workers = 1
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
// default perf + confidence metric pair) at several worker counts;
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
				if _, err := Run(context.Background(), sp, set, Config{Workers: workers, ChunkSize: 512}); err != nil {
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
	for i := 0; i < b.N; i++ {
		if _, err := Reference(sp, set, DefaultTopK); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sp.Size())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
