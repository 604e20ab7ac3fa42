package core

import (
	"fmt"
	"sync"

	"repro/internal/ann"
	"repro/internal/encoding"
	"repro/internal/par"
	"repro/internal/stats"
)

// predictChunk is the number of design points one par.For item
// scores. Large enough to amortize scratch setup and keep the batched
// kernels in their blocked regime, small enough to balance load across
// workers on mid-sized pools.
const predictChunk = 512

// predictScratch is one chunk's reusable buffers: the ANN scratch and
// the members×chunk member-prediction matrix. Pooled so chunks and
// calls reuse them: what a batched prediction still allocates (its
// closures) does not grow with its rows or members.
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

// PredictBatch is the ensemble's batched prediction kernel. It scores
// rows encoded design points (xs is row-major, rows × Inputs()) on
// output column output, and fills mean with the ensemble mean and
// variance with the variance of the member predictions, the
// active-learning disagreement signal of Chapter 7. Either buffer may
// be nil to skip that column; a non-nil one must hold exactly rows
// values. Chunks fan out across the ensemble's worker bound.
//
// Each value is bit-identical to Predict, PredictAll or
// PredictVariance on the same point, for any chunking or worker
// count: rows are independent and the member-order accumulation is the
// same.
func (e *Ensemble) PredictBatch(output int, xs []float64, rows int, mean, variance []float64) {
	if output < 0 || output >= e.outputs {
		panic(fmt.Sprintf("core: output %d out of range [0,%d)", output, e.outputs))
	}
	if rows < 0 || len(xs) != rows*e.Inputs() {
		panic(fmt.Sprintf("core: batch of %d values is not %d rows × %d inputs", len(xs), rows, e.Inputs()))
	}
	if (mean != nil && len(mean) != rows) || (variance != nil && len(variance) != rows) {
		panic(fmt.Sprintf("core: mean/variance buffers have %d/%d slots for %d rows", len(mean), len(variance), rows))
	}
	in := e.Inputs()
	e.predict(output, rows, mean, variance, func(m, start, end int, s *ann.Scratch) []float64 {
		return e.nets[m].ForwardBatch(xs[start*in:end*in], end-start, s)
	})
}

// predict is the body PredictBatch and RangeEvaluator.Eval share: over
// predictChunk-sized chunks of [0, rows), fanned out by par.For under
// the ensemble's worker bound, forward runs member m over rows
// [start, end) and returns its rows × outputs matrix, whose column
// output goes into the member's column of the chunk's prediction
// matrix; moments then reduces the matrix into mean and variance. Each
// chunk takes a pooled scratch and writes only its own rows.
func (e *Ensemble) predict(output, rows int, mean, variance []float64, forward func(m, start, end int, s *ann.Scratch) []float64) {
	nchunks := (rows + predictChunk - 1) / predictChunk
	par.For(nchunks, e.workers, func(c int) {
		ps := getPredictScratch(len(e.nets))
		start := c * predictChunk
		end := min(start+predictChunk, rows)
		cnt := end - start
		for m := range e.nets {
			out := forward(m, start, end, ps.s)
			col := ps.preds[m*cnt : (m+1)*cnt]
			if e.outputs == 1 {
				copy(col, out)
				continue
			}
			for r := range col {
				col[r] = out[r*e.outputs+output]
			}
		}
		e.moments(output, ps.preds[:len(e.nets)*cnt], cnt, window(mean, start, end), window(variance, start, end))
		predictPool.Put(ps)
	})
}

// moments turns preds, each member's column of raw outputs (member m's
// at preds[m*cnt:]), into predictions — the unscale, then math.Exp where
// the targets were log-transformed, as untransform(Unscale(v)) — and
// fills mean and variance (either may be nil) with the member-order
// mean and variance per row, as PredictVariance does per point. The
// three loops run as vector kernels (ann.AffineBatch, ann.ExpBatch,
// ann.Moments) with the scalar loops' bits.
func (e *Ensemble) moments(output int, preds []float64, cnt int, mean, variance []float64) {
	sc := e.scalers[output]
	ann.AffineBatch(preds, sc.Lo, sc.Hi-sc.Lo)
	if e.logT {
		ann.ExpBatch(preds)
	}
	ann.Moments(preds, len(e.nets), mean, variance)
}

// window returns buf[start:end], or nil when buf is nil.
func window(buf []float64, start, end int) []float64 {
	if buf == nil {
		return nil
	}
	return buf[start:end]
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
		e.PredictBatch(0, xs[:(hi-lo)*width], hi-lo, out[lo:hi], nil)
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
