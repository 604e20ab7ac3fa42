package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ann"
	"repro/internal/encoding"
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
	members := len(e.nets)
	e.forEachChunk(rows, func(start, end int, s *ann.Scratch, preds []float64) {
		cnt := end - start
		// preds[m*cnt+r] is member m's prediction for row start+r: the
		// unscaled output column, then untransform's math.Exp over the
		// whole column at once (ann.ExpBatch keeps its bits).
		sc := e.scalers[output]
		for m, n := range e.nets {
			outM := n.ForwardBatch(xs[start*e.Inputs():end*e.Inputs()], cnt, s)
			dst := preds[m*cnt : (m+1)*cnt]
			for r := range dst {
				dst[r] = sc.Unscale(outM[r*e.outputs+output])
			}
			if e.logT {
				ann.ExpBatch(dst)
			}
		}
		// Same accumulation order as the per-point PredictVariance:
		// member-order sum and one division for the mean, then
		// member-order squared deviations.
		for r := 0; r < cnt; r++ {
			var sum float64
			for m := 0; m < members; m++ {
				sum += preds[m*cnt+r]
			}
			mu := sum / float64(members)
			if mean != nil {
				mean[start+r] = mu
			}
			if variance == nil {
				continue
			}
			var ss float64
			for m := 0; m < members; m++ {
				d := preds[m*cnt+r] - mu
				ss += d * d
			}
			variance[start+r] = ss / float64(members)
		}
	})
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
