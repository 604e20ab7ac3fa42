package main

import (
	"context"
	"reflect"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/studies"
	"repro/internal/sweep"
)

// sweepTopK is the leaderboard size: cmd/sweep's default.
const sweepTopK = 10

func runSweep(rc runConfig) (*report, error) {
	rep := newReport()
	st := studies.MemorySystem()

	held := heldOut(st, rc.seed)
	var setups []float64
	var fxs []*fixture
	for k := 0; k < setupReps; k++ {
		s := rc.tr.Begin("setup", 0)
		start := time.Now()
		fx, err := buildFixture(st, rc.seed, held, rc.work, rc.tr, s.id)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		rc.tr.End(s)
		fxs = append(fxs, fx)
	}
	rep.set("setup_s", median(setups), len(setups))
	fx := fxs[len(fxs)-1]

	// Mean and variance of the one model: cmd/sweep's default ranking,
	// the performance-vs-confidence frontier.
	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{fixtureName}),
		map[string]*bundle.Bundle{fixtureName: fx.bundle})
	if err != nil {
		return nil, err
	}
	cfg := sweep.Config{TopK: sweepTopK, Workers: 1}
	enc := encoding.NewEncoder(sp)
	var first *sweep.Result
	var all, traced, untraced []float64
	var stages []sweepStages
	ctx := context.Background()
	begin := time.Now()
	for i := 0; time.Since(begin) < rc.seconds; i++ {
		var tr *Tracer
		if i%2 == 1 {
			tr = rc.tr // traced runs alternate traced and untraced sweeps
		}
		rep.attempted++
		start := time.Now()
		res, err := sweep.Run(ctx, sp, set, cfg)
		end := time.Now()
		tr.Record("sweep", 0, start, end)
		d := end.Sub(start)
		if err != nil {
			rep.failed++
			rep.problem("sweep %d: %v", i, err)
			continue
		}
		all = append(all, millis(d))
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res.TopK, first.TopK) || !reflect.DeepEqual(res.Frontier, first.Frontier) {
			rep.failed++
			rep.problem("sweep %d: top-k or frontier differs from sweep 0", i)
		}
		if tr == nil {
			untraced = append(untraced, millis(d))
			continue
		}
		traced = append(traced, millis(d))
		stages = append(stages, timeStages(tr, sp.Size(), enc, set, d))
	}
	rep.set("peak_rss_mb", peakRSSMB(), 1)
	rep.setTimings("sweeps", all)
	rep.also("sweep_p50_ms", "ms", median(all), len(all))
	rep.also("sweep_p90_ms", "ms", percentile(all, 90), len(all))

	// The engine against the naive materialize-everything reference,
	// once, outside the timed region.
	if first != nil {
		ref, err := sweep.Reference(sp, set, sweepTopK)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(ref.TopK, first.TopK) || !reflect.DeepEqual(ref.Frontier, first.Frontier) {
			rep.problem("sweep 0 differs from sweep.Reference")
		}
		rep.line("frontier: %d points; top-1 %s = %.6g at point %d", len(first.Frontier),
			first.Metrics[0].Name, first.TopK[0][0].Values[0], first.TopK[0][0].Index)
	}

	if err := fixtureReport(rc, rep, st, fxs, held); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		var encs, fwd, red []float64
		for _, s := range stages {
			encs = append(encs, millis(s.encode))
			fwd = append(fwd, millis(s.forward))
			red = append(red, s.reduce)
		}
		n := len(stages)
		rep.set("encode.busy_ms", median(encs), n)
		rep.set("forward.busy_ms", median(fwd), n)
		rep.set("forward.points_per_s", float64(sp.Size())/(median(fwd)/1000), n)
		rep.set("reduce.ms", median(red), n)
		if first != nil {
			rep.set("pareto.frontier_size", float64(len(first.Frontier)), len(all))
		}
		overhead := median(traced) / median(untraced)
		rep.set("trace.overhead", overhead, len(traced))
		rep.line("accounting: encode %.4f + forward %.4f + reduce %.4f = %.4f ms; traced sweep p50 %.4f ms (n=%d), untraced %.4f ms (n=%d)",
			median(encs), median(fwd), median(red), median(encs)+median(fwd)+median(red),
			median(traced), len(traced), median(untraced), len(untraced))
		rep.line("tracing overhead: sweep_p50_ms traced/untraced = %.4f", overhead)
	}
	return rep, nil
}

// sweepStages is one traced sweep's breakdown.
type sweepStages struct {
	encode, forward time.Duration
	reduce          float64 // ms: the sweep's time not spent encoding or in the forward kernel
}

// timeStages times the two stages sweep.Run does not expose, encoding
// and the forward kernel, in passes of their own over the same
// DefaultChunkSize chunks the engine uses; whatever else the sweep
// spent is the top-k and Pareto reduction.
func timeStages(tr *Tracer, size int, enc *encoding.Encoder, set *core.MetricSet, sweepTime time.Duration) sweepStages {
	root := tr.Begin("sweep.stages", 0)
	defer tr.End(root)
	chunk := sweep.DefaultChunkSize
	width := enc.Width()
	xs := make([]float64, chunk*width)
	cols := make([][]float64, set.Len())
	for m := range cols {
		cols[m] = make([]float64, chunk)
	}
	view := make([][]float64, len(cols))
	var st sweepStages
	for lo := 0; lo < size; lo += chunk {
		rows := min(chunk, size-lo)
		for m := range cols {
			view[m] = cols[m][:rows]
		}
		t0 := time.Now()
		enc.EncodeRange(lo, rows, xs[:rows*width])
		t1 := time.Now()
		set.Eval(xs[:rows*width], rows, view)
		t2 := time.Now()
		tr.Record("encode", root.id, t0, t1)
		tr.Record("forward", root.id, t1, t2)
		st.encode += t1.Sub(t0)
		st.forward += t2.Sub(t1)
	}
	st.reduce = millis(sweepTime - st.encode - st.forward)
	return st
}
