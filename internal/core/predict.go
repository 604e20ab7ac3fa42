package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ann"
	"repro/internal/encoding"
	"repro/internal/mathx"
	"repro/internal/stats"
)

// predictChunk is the number of design points one worker scores per
// claim. Large enough to amortize scratch setup and keep the batched
// kernels in their blocked regime, small enough to balance load across
// workers on mid-sized pools.
const predictChunk = 512

// predictScratch is one worker's reusable buffers: the ANN scratch and
// the members×chunk member-prediction matrix. Pooled so steady-state
// batched prediction allocates nothing.
type predictScratch struct {
	s     *ann.Scratch
	preds []float64
}

var predictPool = sync.Pool{New: func() any { return &predictScratch{s: ann.NewScratch()} }}

func getPredictScratch(members int) *predictScratch {
	ps := predictPool.Get().(*predictScratch)
	if need := members * predictChunk; cap(ps.preds) < need {
		ps.preds = make([]float64, need)
	}
	ps.preds = ps.preds[:members*predictChunk]
	return ps
}

// Inputs returns the encoded input width the ensemble's members expect.
func (e *Ensemble) Inputs() int { return e.nets[0].Config().Inputs }

// PredictBatch scores many encoded design points in one call: xs is a
// flat row-major matrix of rows points (each Inputs() wide) and the
// primary-target predictions land in out (allocated when nil), which is
// also returned. This is the hot path for candidate-pool scoring and
// full-space sweeps — it runs each member's batched forward kernel over
// the whole chunk and shards chunks across the ensemble's worker bound.
//
// Each output is bit-identical to Predict on the same point: rows are
// independent, and the per-row member accumulation order is unchanged.
func (e *Ensemble) PredictBatch(xs []float64, rows int, out []float64) []float64 {
	return e.PredictOutputBatch(0, xs, rows, out)
}

// PredictOutputBatch is PredictBatch for an arbitrary target metric:
// it scores the batch on ensemble output column output (0 is the
// primary target; multi-task ensembles carry auxiliary metrics in the
// further columns). For output 0 it is the identical computation to
// PredictBatch — same kernels, same accumulation order, same bits.
func (e *Ensemble) PredictOutputBatch(output int, xs []float64, rows int, out []float64) []float64 {
	return e.PredictOutputBatchKernel(output, xs, rows, out, ann.KernelExact)
}

// PredictOutputBatchKernel is PredictOutputBatch with an explicit
// kernel tier (see ann.KernelMode). The mode is a per-call argument so
// one shared ensemble can serve exact and fast queries concurrently;
// ann.KernelExact reproduces PredictOutputBatch bit for bit, while
// ann.KernelFast32 trades the documented mathx error bounds for
// throughput and stays bit-identical within a mode across chunking and
// workers.
func (e *Ensemble) PredictOutputBatchKernel(output int, xs []float64, rows int, out []float64, mode ann.KernelMode) []float64 {
	e.checkOutput(output)
	if rows < 0 || len(xs) != rows*e.Inputs() {
		panic(fmt.Sprintf("core: batch of %d values is not %d rows × %d inputs", len(xs), rows, e.Inputs()))
	}
	if out == nil {
		out = make([]float64, rows)
	}
	if len(out) != rows {
		panic(fmt.Sprintf("core: output buffer has %d slots for %d rows", len(out), rows))
	}
	e.forEachChunk(rows, func(start, end int, s *ann.Scratch, preds []float64) {
		e.predictRange(output, xs, start, end, out[start:end], s, preds, mode)
	})
	return out
}

// checkOutput panics when output does not name a trained target metric.
func (e *Ensemble) checkOutput(output int) {
	if output < 0 || output >= e.outputs {
		panic(fmt.Sprintf("core: output %d out of range [0,%d)", output, e.outputs))
	}
}

// PredictVarianceBatch is the batched PredictVariance: for each of rows
// encoded points it computes the ensemble mean and the variance of the
// member predictions (the active-learning disagreement signal of
// Chapter 7). mean and variance are filled when non-nil and allocated
// otherwise; both are returned.
func (e *Ensemble) PredictVarianceBatch(xs []float64, rows int, mean, variance []float64) ([]float64, []float64) {
	return e.PredictOutputVarianceBatch(0, xs, rows, mean, variance)
}

// PredictOutputVarianceBatch is PredictVarianceBatch for an arbitrary
// target metric: mean and member disagreement on ensemble output
// column output. For output 0 it is the identical computation to
// PredictVarianceBatch, bit for bit.
func (e *Ensemble) PredictOutputVarianceBatch(output int, xs []float64, rows int, mean, variance []float64) ([]float64, []float64) {
	return e.PredictOutputVarianceBatchKernel(output, xs, rows, mean, variance, ann.KernelExact)
}

// PredictOutputVarianceBatchKernel is PredictOutputVarianceBatch with
// an explicit kernel tier; see PredictOutputBatchKernel for the mode
// semantics. The member mean/deviation accumulation is float64 and
// identical across modes — only the forward kernels and the
// denormalization transcendental differ on the fast32 tier.
func (e *Ensemble) PredictOutputVarianceBatchKernel(output int, xs []float64, rows int, mean, variance []float64, mode ann.KernelMode) ([]float64, []float64) {
	e.checkOutput(output)
	if rows < 0 || len(xs) != rows*e.Inputs() {
		panic(fmt.Sprintf("core: batch of %d values is not %d rows × %d inputs", len(xs), rows, e.Inputs()))
	}
	if mean == nil {
		mean = make([]float64, rows)
	}
	if variance == nil {
		variance = make([]float64, rows)
	}
	if len(mean) != rows || len(variance) != rows {
		panic(fmt.Sprintf("core: mean/variance buffers have %d/%d slots for %d rows", len(mean), len(variance), rows))
	}
	members := len(e.nets)
	e.forEachChunk(rows, func(start, end int, s *ann.Scratch, preds []float64) {
		cnt := end - start
		// preds[m*cnt+r] is member m's prediction for row start+r.
		if mode == ann.KernelExact {
			for m, n := range e.nets {
				outM := n.ForwardBatchKernel(xs[start*e.Inputs():end*e.Inputs()], cnt, s, ann.KernelExact)
				for r := 0; r < cnt; r++ {
					preds[m*cnt+r] = e.untransform(e.scalers[output].Unscale(outM[r*e.outputs+output]))
				}
			}
		} else {
			for m, n := range e.nets {
				outM := n.ForwardBatchKernel(xs[start*e.Inputs():end*e.Inputs()], cnt, s, mode)
				e.denormalizeFast(output, outM, cnt, preds[m*cnt:(m+1)*cnt])
			}
		}
		// Same accumulation order as the per-point PredictVariance:
		// member-order sum for the mean, then member-order squared
		// deviations.
		for r := 0; r < cnt; r++ {
			var sum float64
			for m := 0; m < members; m++ {
				sum += preds[m*cnt+r]
			}
			mu := sum / float64(members)
			var ss float64
			for m := 0; m < members; m++ {
				d := preds[m*cnt+r] - mu
				ss += d * d
			}
			mean[start+r] = mu
			variance[start+r] = ss / float64(members)
		}
	})
	return mean, variance
}

// denormalizeFast maps one member's model-space output column back to
// the raw target range for the fast32 kernel tier: the affine unscale is
// fused (math.FMA, correctly rounded everywhere) and a log-transformed
// target uses the bounded-error mathx exponential in one batch pass
// instead of a library call per element.
func (e *Ensemble) denormalizeFast(output int, outM []float64, cnt int, dst []float64) {
	sc := e.scalers[output]
	span := sc.Hi - sc.Lo
	for r := 0; r < cnt; r++ {
		dst[r] = math.FMA(outM[r*e.outputs+output], span, sc.Lo)
	}
	if e.logT {
		mathx.ExpSlice(dst[:cnt])
	}
}

// PredictIndices encodes the design-point indices through enc and
// scores them with the batched kernels — the common "evaluate the
// model on this list of points" idiom. Encoding and prediction stream
// in fixed-size blocks, so a full-space evaluation set costs one
// block's buffer, not O(points) memory; rows are independent, so the
// blocking leaves every prediction bit-identical.
func (e *Ensemble) PredictIndices(enc *encoding.Encoder, idxs []int) []float64 {
	width := enc.Width()
	out := make([]float64, len(idxs))
	const block = 4096
	xs := make([]float64, min(block, len(idxs))*width)
	for lo := 0; lo < len(idxs); lo += block {
		hi := min(lo+block, len(idxs))
		for i, idx := range idxs[lo:hi] {
			enc.EncodeIndex(idx, xs[i*width:(i+1)*width])
		}
		e.PredictBatch(xs[:(hi-lo)*width], hi-lo, out[lo:hi])
	}
	return out
}

// TrueError measures the ensemble's mean and standard deviation of
// absolute percentage error on the primary target over the given
// design points, against the supplied ground truth (one batched
// prediction, zero simulations). Points whose truth is exactly 0 are
// skipped — percentage error is undefined there — and used reports how
// many points actually entered the statistics.
func (e *Ensemble) TrueError(enc *encoding.Encoder, idxs []int, truth []float64) (mean, sd float64, used int) {
	if len(idxs) != len(truth) {
		panic(fmt.Sprintf("core: %d points but %d truth values", len(idxs), len(truth)))
	}
	preds := e.PredictIndices(enc, idxs)
	var errs []float64
	for i := range idxs {
		if truth[i] == 0 {
			continue
		}
		d := (preds[i] - truth[i]) / truth[i] * 100
		if d < 0 {
			d = -d
		}
		errs = append(errs, d)
	}
	mean, sd = stats.MeanStd(errs)
	return mean, sd, len(errs)
}

// predictRange scores rows [start, end) on one output column into out,
// reusing s; tmp is a ≥cnt scratch column for the fast32 tier's
// batched denormalization.
func (e *Ensemble) predictRange(output int, xs []float64, start, end int, out []float64, s *ann.Scratch, tmp []float64, mode ann.KernelMode) {
	cnt := end - start
	for i := range out {
		out[i] = 0
	}
	if mode == ann.KernelExact {
		for _, n := range e.nets {
			outM := n.ForwardBatchKernel(xs[start*e.Inputs():end*e.Inputs()], cnt, s, ann.KernelExact)
			for r := 0; r < cnt; r++ {
				out[r] += e.untransform(e.scalers[output].Unscale(outM[r*e.outputs+output]))
			}
		}
	} else {
		for _, n := range e.nets {
			outM := n.ForwardBatchKernel(xs[start*e.Inputs():end*e.Inputs()], cnt, s, mode)
			e.denormalizeFast(output, outM, cnt, tmp[:cnt])
			for r := 0; r < cnt; r++ {
				out[r] += tmp[r]
			}
		}
	}
	members := float64(len(e.nets))
	for r := range out {
		out[r] /= members
	}
}

// forEachChunk splits [0, rows) into predictChunk-sized ranges and runs
// fn over them, fanning out across the ensemble's worker bound when the
// batch is large enough to pay for the goroutines. Each invocation gets
// a private scratch and a members×chunk scratch buffer, so fn may use
// them freely without locking.
func (e *Ensemble) forEachChunk(rows int, fn func(start, end int, s *ann.Scratch, preds []float64)) {
	if rows == 0 {
		return
	}
	nchunks := (rows + predictChunk - 1) / predictChunk
	workers := e.workers
	if workers < 1 {
		workers = 1
	}
	if workers > nchunks {
		workers = nchunks
	}
	run := func(s *ann.Scratch, preds []float64, c int) {
		start := c * predictChunk
		end := start + predictChunk
		if end > rows {
			end = rows
		}
		fn(start, end, s, preds)
	}
	if workers == 1 {
		ps := getPredictScratch(len(e.nets))
		for c := 0; c < nchunks; c++ {
			run(ps.s, ps.preds, c)
		}
		predictPool.Put(ps)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := getPredictScratch(len(e.nets))
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					predictPool.Put(ps)
					return
				}
				run(ps.s, ps.preds, c)
			}
		}()
	}
	wg.Wait()
}
