package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/serve"
	"repro/internal/space"
	"repro/internal/stats"
)

// benchSpace mirrors internal/sweep's benchmark space (7680 points) so
// the coordinator's points/s reads directly against the local engine's
// BenchmarkSweep baselines in BENCH_sweep.json.
func benchSpace() *space.Space {
	return space.New("cluster-bench", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8, 16, 32, 64, 128}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5, 6}},
		{Name: "c", Kind: space.Continuous, Values: []float64{0.5, 1.0, 1.5, 2.0, 2.5}},
		{Name: "d", Kind: space.Cardinal, Values: []float64{16, 32, 64, 128}},
		{Name: "e", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

var (
	benchOnce sync.Once
	benchB    *bundle.Bundle
)

func benchBundle(b *testing.B) *bundle.Bundle {
	b.Helper()
	benchOnce.Do(func() {
		sp := benchSpace()
		cfg := core.DefaultModelConfig()
		cfg.Train.MaxEpochs = 60
		cfg.Train.Patience = 15
		cfg.Seed = 3
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
			panic(err)
		}
		bd, err := bundle.New(sp, ens, bundle.Meta{Study: "bench", Metric: "perf"})
		if err != nil {
			panic(err)
		}
		benchB = bd
	})
	return benchB
}

// BenchmarkClusterSweep measures coordinated full-space throughput
// over in-process serve nodes. nodes=1 is the coordinator-overhead
// gate in BENCH_cluster.json: shard planning, HTTP round trips, wire
// (de)serialization and the ordered merge must stay within benchdiff
// tolerance of the local engine's BenchmarkSweep/workers=1.
func BenchmarkClusterSweep(b *testing.B) {
	bd := benchBundle(b)
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var nodes []string
			for i := 0; i < n; i++ {
				reg := serve.NewRegistry()
				if _, err := reg.Add("m", bd, serve.CoalesceOpts{}); err != nil {
					b.Fatal(err)
				}
				ts := httptest.NewServer(serve.New(reg))
				defer ts.Close()
				defer reg.Close()
				nodes = append(nodes, ts.URL)
			}
			coord, err := New(Config{
				Nodes:   nodes,
				Request: serve.SweepRequest{Model: "m", Chunk: 512},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			points := 0
			for i := 0; i < b.N; i++ {
				res, err := coord.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				points += res.Points
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
