package explore

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// slowOracle models a simulation-bound oracle: each point costs a fixed
// latency (the cycle-level simulator's per-point runtime) before the
// analytic answer comes back. Latency-bound work is exactly where the
// per-point fan-out pays even on one core.
type slowOracle struct {
	inner   *synthOracle
	latency time.Duration
}

func (o *slowOracle) Evaluate(indices []int) ([][]float64, error) {
	time.Sleep(time.Duration(len(indices)) * o.latency)
	return o.inner.Evaluate(indices)
}

// BenchmarkOracleFanout measures one 50-point oracle batch through the
// evaluation stage alone at different worker counts; CI's bench smoke
// runs it once per worker count, and no baseline gates it.
func BenchmarkOracleFanout(b *testing.B) {
	sp := synthSpace()
	const batchSize = 50
	const latency = 2 * time.Millisecond
	batch := make([]int, batchSize)
	for i := range batch {
		batch[i] = i
	}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			oracle := &slowOracle{inner: &synthOracle{sp: sp}, latency: latency}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := launchEval(context.Background(), oracle, batch, workers, 1).await()
				for _, r := range results {
					if r.err != nil {
						b.Fatal(r.err)
					}
				}
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			b.ReportMetric(float64(batchSize)/perOp.Seconds(), "points/s")
		})
	}
}

// BenchmarkDriverRound measures a full pipelined round — selection,
// fan-out simulation, training — against the strictly sequential
// setting on the same latency-bound oracle, capturing the
// train/simulate overlap win as well.
func BenchmarkDriverRound(b *testing.B) {
	const latency = 1 * time.Millisecond
	cfg := core.ExploreConfig{
		Model:      fastModel(),
		BatchSize:  25,
		MaxSamples: 50,
		Seed:       3,
	}
	for _, bc := range []struct {
		name string
		pipe Pipeline
	}{
		{"sequential", Pipeline{Workers: -1, Sequential: true}},
		{"driver/workers=1", Pipeline{Workers: 1}},
		{"driver/workers=8", Pipeline{Workers: 8}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp := synthSpace()
				d, err := New(sp, &slowOracle{inner: &synthOracle{sp: sp}, latency: latency},
					Config{ExploreConfig: cfg, Pipeline: bc.pipe})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
