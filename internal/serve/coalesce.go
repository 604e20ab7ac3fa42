package serve

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// errClosed is returned to requests that arrive while the model is
// being shut down (or swapped out by a reload; the predict handler
// retries those against the replacement).
var errClosed = errors.New("serve: model closed")

// CoalesceOpts tunes the request coalescer.
type CoalesceOpts struct {
	// MaxBatch flushes a batch once this many single-point requests are
	// pending (default 256, half a predict chunk per flush at most).
	MaxBatch int
	// Linger is how long the dispatcher waits for more requests after
	// the first one of a batch arrives (default 200µs). Zero keeps the
	// default; coalescing cannot be disabled, only shortened, because a
	// lone request still flushes after at most one linger window.
	Linger time.Duration
}

func (o CoalesceOpts) withDefaults() CoalesceOpts {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Linger <= 0 {
		o.Linger = 200 * time.Microsecond
	}
	return o
}

// CoalesceStats counts the coalescer's traffic: Requests single-point
// queries answered (including flush-time cache hits), in Flushes
// batched kernel calls.
type CoalesceStats struct {
	Requests int64 `json:"requests"`
	Flushes  int64 `json:"flushes"`
}

// batchBuckets are the coalesce-batch-size histogram bounds (rows per
// kernel call); the final histogram slot is the +Inf overflow.
var batchBuckets = [...]int{1, 2, 4, 8, 16, 32, 64, 128, 256}

const nBatchBuckets = len(batchBuckets) + 1

type pointReq struct {
	x    []float64
	key  cacheKey
	resp chan pointResp
}

type pointResp struct {
	mean, variance float64
}

// coalescer funnels concurrent single-point predictions into batched
// ensemble calls. Per-point HTTP traffic would otherwise pay one full
// per-member forward pass per request; the dispatcher instead gathers
// whatever requests arrive within one linger window (or MaxBatch,
// whichever is first) and answers them all with one batched kernel
// call, so serving throughput rides the same vectorized kernels as
// candidate-pool scoring. Batching changes no bits: rows are
// independent and the batched kernel is bit-identical to the
// per-point path.
//
// The coalescer is also where the prediction cache earns its
// "coalescing-aware" label: requests whose key was filled between
// admission and flush (typically by the previous flush of the same hot
// point) are answered from the cache, and only the misses reach a
// kernel — a flush computes exactly the work nobody has done yet.
type coalescer struct {
	ens   *core.Ensemble
	width int
	opts  CoalesceOpts
	cache *predCache // nil = caching off

	reqs chan pointReq
	quit chan struct{}
	done chan struct{}

	requests atomic.Int64
	flushes  atomic.Int64

	batchHist [nBatchBuckets]atomic.Int64
	batchRows atomic.Int64

	// Dispatcher-owned flush buffers, reused across flushes.
	batch    []pointReq
	xs       []float64
	mean     []float64
	variance []float64
}

func newCoalescer(ens *core.Ensemble, width int, opts CoalesceOpts, cache *predCache) *coalescer {
	c := &coalescer{
		ens:   ens,
		width: width,
		opts:  opts.withDefaults(),
		cache: cache,
		reqs:  make(chan pointReq),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go c.run()
	return c
}

// predict answers one encoded point through the coalescer. key
// addresses the point in the prediction cache and is ignored when
// caching is off.
func (c *coalescer) predict(x []float64, key cacheKey) (mean, variance float64, err error) {
	r := pointReq{x: x, key: key, resp: make(chan pointResp, 1)}
	select {
	case c.reqs <- r:
	case <-c.quit:
		return 0, 0, errClosed
	}
	select {
	case resp := <-r.resp:
		return resp.mean, resp.variance, nil
	case <-c.quit:
		return 0, 0, errClosed
	}
}

// stats returns the traffic counters.
func (c *coalescer) stats() CoalesceStats {
	return CoalesceStats{Requests: c.requests.Load(), Flushes: c.flushes.Load()}
}

// batchHistogram snapshots the rows-per-kernel-call histogram and the
// total rows computed (the histogram's sum).
func (c *coalescer) batchHistogram() (counts [nBatchBuckets]int64, rows int64) {
	for i := range counts {
		counts[i] = c.batchHist[i].Load()
	}
	return counts, c.batchRows.Load()
}

// close stops the dispatcher; in-flight requests receive errClosed.
func (c *coalescer) close() {
	close(c.quit)
	<-c.done
}

func (c *coalescer) run() {
	defer close(c.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-c.quit:
			return
		case first := <-c.reqs:
			c.batch = append(c.batch[:0], first)
			timer.Reset(c.opts.Linger)
		gather:
			for len(c.batch) < c.opts.MaxBatch {
				select {
				case r := <-c.reqs:
					c.batch = append(c.batch, r)
				case <-timer.C:
					break gather
				case <-c.quit:
					c.flush()
					return
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			c.flush()
		}
	}
}

// recordBatch tallies one kernel call of n rows.
func (c *coalescer) recordBatch(n int) {
	slot := nBatchBuckets - 1
	for i, ub := range batchBuckets {
		if n <= ub {
			slot = i
			break
		}
	}
	c.batchHist[slot].Add(1)
	c.batchRows.Add(int64(n))
}

// flush answers every gathered request: cache hits immediately, the
// misses with one batched kernel call.
func (c *coalescer) flush() {
	if len(c.batch) == 0 {
		return
	}
	// Count before answering, so a client holding its answer already
	// sees its request in the model's counters.
	c.requests.Add(int64(len(c.batch)))

	// Recheck the cache at flush time: a point admitted as a miss may
	// have been filled by an earlier flush in the same linger storm.
	// peek, not get — the handler already counted this request's
	// hit/miss outcome at admission.
	if c.cache != nil {
		miss := c.batch[:0]
		for _, r := range c.batch {
			if v, ok := c.cache.peek(r.key); ok {
				r.resp <- pointResp{mean: v.mean, variance: v.variance}
			} else {
				miss = append(miss, r)
			}
		}
		c.batch = miss
	}

	if n := len(c.batch); n > 0 {
		if need := n * c.width; cap(c.xs) < need {
			c.xs = make([]float64, need)
			c.mean = make([]float64, n)
			c.variance = make([]float64, n)
		}
		xs := c.xs[:n*c.width]
		mean := c.mean[:n]
		variance := c.variance[:n]
		for i, r := range c.batch {
			copy(xs[i*c.width:(i+1)*c.width], r.x)
		}
		c.ens.PredictBatch(0, xs, n, mean, variance)
		c.flushes.Add(1)
		c.recordBatch(n)
		for i, r := range c.batch {
			if c.cache != nil {
				c.cache.put(r.key, cacheVal{mean: mean[i], variance: variance[i]})
			}
			r.resp <- pointResp{mean: mean[i], variance: variance[i]}
		}
	}

	c.batch = c.batch[:0]
}
