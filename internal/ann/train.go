package ann

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Dataset is a set of training examples in network (normalized) space,
// with the raw (de-normalized) primary target kept alongside so that
// percentage error — the metric the paper optimizes and reports — can
// be computed exactly.
type Dataset struct {
	X   [][]float64 // inputs
	Y   [][]float64 // normalized targets
	Raw []float64   // actual value of the primary target (e.g. IPC)
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Append adds one example.
func (d *Dataset) Append(x, y []float64, raw float64) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
	d.Raw = append(d.Raw, raw)
}

// Subset returns a view of the examples at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{
		X:   make([][]float64, len(idx)),
		Y:   make([][]float64, len(idx)),
		Raw: make([]float64, len(idx)),
	}
	for i, j := range idx {
		s.X[i], s.Y[i], s.Raw[i] = d.X[j], d.Y[j], d.Raw[j]
	}
	return s
}

// packed is a Dataset flattened into contiguous row-major matrices, the
// layout the batched kernels and the training inner loop consume. The
// per-example slice-of-slices form costs a pointer dereference per
// access and scatters rows across the heap; packing once up front makes
// every subsequent epoch walk flat memory.
type packed struct {
	x, y []float64 // rows × inW, rows × outW
	raw  []float64
	n    int
	inW  int
	outW int
}

func packDataset(d *Dataset, inW, outW int) *packed {
	p := &packed{
		x:    make([]float64, d.Len()*inW),
		y:    make([]float64, d.Len()*outW),
		raw:  d.Raw,
		n:    d.Len(),
		inW:  inW,
		outW: outW,
	}
	for i, row := range d.X {
		if len(row) != inW {
			panic(fmt.Sprintf("ann: example %d has %d inputs, network has %d", i, len(row), inW))
		}
		copy(p.x[i*inW:(i+1)*inW], row)
	}
	for i, row := range d.Y {
		if len(row) != outW {
			panic(fmt.Sprintf("ann: example %d has %d targets, network has %d outputs", i, len(row), outW))
		}
		copy(p.y[i*outW:(i+1)*outW], row)
	}
	return p
}

func (p *packed) xRow(i int) []float64 { return p.x[i*p.inW : (i+1)*p.inW] }
func (p *packed) yRow(i int) []float64 { return p.y[i*p.outW : (i+1)*p.outW] }

// Unscaler converts a normalized primary-target prediction back to its
// actual range (§3.3: predictions are scaled back before percentage
// errors are computed).
type Unscaler interface {
	Unscale(float64) float64
}

// TrainOpts controls gradient-descent training with early stopping.
type TrainOpts struct {
	// MaxEpochs bounds training length. One epoch presents Len(train)
	// examples (drawn with replacement when weighted sampling is on).
	MaxEpochs int
	// Patience stops training after this many consecutive epochs
	// without improvement of the early-stopping-set percentage error.
	Patience int
	// WeightedPresentation presents examples at a frequency
	// proportional to 1/raw-target, training the net for percentage
	// rather than absolute error (§3.3). When false, examples are
	// presented in a random permutation each epoch.
	WeightedPresentation bool
	// LRDecay multiplies the learning rate after each epoch (1 = the
	// paper's constant rate).
	LRDecay float64
	// MinImprove is the relative ES-error improvement that resets
	// patience (guards against drifting forever on noise).
	MinImprove float64
	// Seed drives presentation order.
	Seed uint64
}

// DefaultTrainOpts returns the training schedule used by this
// repository's experiments: weighted presentation, early stopping with
// moderate patience, and gentle learning-rate decay so the paper's
// small-step behaviour is reached after an accelerated start.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{
		MaxEpochs:            1200,
		Patience:             120,
		WeightedPresentation: false,
		LRDecay:              0.9975,
		MinImprove:           1e-4,
	}
}

// PaperTrainOpts returns a schedule faithful to §3.1: constant learning
// rate, weighted presentation, early stopping only.
func PaperTrainOpts() TrainOpts {
	return TrainOpts{
		MaxEpochs:            4000,
		Patience:             100,
		WeightedPresentation: true,
		LRDecay:              1,
		MinImprove:           0,
	}
}

// TrainResult reports how a training run ended.
type TrainResult struct {
	Epochs    int     // epochs actually run
	BestEpoch int     // epoch of the best ES error
	BestESErr float64 // best mean percentage error on the ES set
}

// TrainEarlyStopping trains n on train, monitoring mean percentage
// error on es after every epoch and restoring the best weights seen
// when training stops (§3.2). The unscaler maps normalized predictions
// of output 0 back to the actual target range.
//
// Both sets are packed into flat matrices once up front; the
// early-stopping evaluation runs through ForwardBatch with a reused
// scratch, so the per-epoch monitoring allocates nothing.
func TrainEarlyStopping(n *Network, train, es *Dataset, un Unscaler, opts TrainOpts) (TrainResult, error) {
	if train.Len() == 0 {
		return TrainResult{}, fmt.Errorf("ann: empty training set")
	}
	if es.Len() == 0 {
		return TrainResult{}, fmt.Errorf("ann: empty early-stopping set")
	}
	if opts.MaxEpochs <= 0 {
		return TrainResult{}, fmt.Errorf("ann: MaxEpochs must be positive")
	}
	rng := stats.NewRNG(opts.Seed ^ 0x7EA41)

	var alias *stats.Alias
	if opts.WeightedPresentation {
		w := make([]float64, train.Len())
		for i, r := range train.Raw {
			// Presentation frequency ∝ 1/|target| (§3.3); degenerate
			// targets fall back to uniform weight.
			if a := math.Abs(r); a > 1e-12 {
				w[i] = 1 / a
			} else {
				w[i] = 1
			}
		}
		alias = stats.NewAlias(w)
	}

	tr := packDataset(train, n.cfg.Inputs, n.cfg.Outputs)
	esSet := packDataset(es, n.cfg.Inputs, n.cfg.Outputs)
	scratch := NewScratch()

	var permBuf []int
	if alias == nil {
		permBuf = make([]int, tr.n)
	}
	step, sync := trainStep(n)

	// presentEpoch runs one epoch of per-example gradient updates over
	// the training set in the configured presentation order.
	presentEpoch := func(lr float64) {
		order := func(k int) int {
			return alias.Draw(rng)
		}
		if alias == nil {
			rng.PermInto(permBuf)
			order = func(k int) int { return permBuf[k] }
		}
		for k := 0; k < tr.n; k++ {
			i := order(k)
			step(tr.xRow(i), tr.yRow(i), lr)
		}
	}

	lr := n.cfg.LearningRate
	best := TrainResult{BestESErr: math.Inf(1)}
	// Flat snapshot buffer, reused across improvements: early stopping
	// can snapshot hundreds of times per fold.
	var bestW []float64
	haveBest := false
	sincebest := 0

	for epoch := 1; epoch <= opts.MaxEpochs; epoch++ {
		presentEpoch(lr)
		sync()
		esErr := meanPercentErrorPacked(n, esSet, un, scratch)
		if esErr < best.BestESErr*(1-opts.MinImprove) || !haveBest {
			best.BestESErr = esErr
			best.BestEpoch = epoch
			bestW = n.SnapshotInto(bestW)
			haveBest = true
			sincebest = 0
		} else {
			sincebest++
			if sincebest >= opts.Patience {
				best.Epochs = epoch
				n.RestoreFlat(bestW)
				return best, nil
			}
		}
		if opts.LRDecay > 0 && opts.LRDecay != 1 {
			lr *= opts.LRDecay
		}
	}
	best.Epochs = opts.MaxEpochs
	n.RestoreFlat(bestW)
	return best, nil
}

// trainStep returns the per-example step TrainEarlyStopping runs on n,
// and a sync that writes whatever state the step keeps apart back into
// n's buffers, bit for bit, before anything reads them. Where
// trainAsm16 holds that is step16's vector step; elsewhere it is
// Train, with nothing to sync. Both leave the same bits.
func trainStep(n *Network) (step func(x, target []float64, lr float64), sync func()) {
	if trainAsm16(n) {
		s := newStep16(n)
		return s.step, s.sync
	}
	return func(x, target []float64, lr float64) { n.Train(x, target, lr) }, func() {}
}

// step16 is the training step of a network with one 16-unit hidden
// layer on an AVX2 CPU. For a whole training run it holds the hidden
// layer's weights and momentum input-major (transpose's layout, bias
// row last), so the hidden forward pass is hidden16AVX2f64 over one
// row and the hidden update is update16AVX2, four units per register.
// The output layer's forward pass, every delta and the output layer's
// update run in Go on the network's own buffers, all deltas before any
// update, as in Train. Each value gets the operations Train gives it
// in the same order (docs/ARCHITECTURE.md, "The training step").
type step16 struct {
	n      *Network
	wT, mT []float64   // hidden weights and momentum, input-major
	lrd    [16]float64 // -lr·δ_j of the current example
}

func newStep16(n *Network) *step16 {
	hid := n.layers[0]
	return &step16{n: n, wT: transpose(hid, n.w, nil), mT: transpose(hid, n.dwPrev, nil)}
}

// step is Train for one example, without its squared error.
func (s *step16) step(x, target []float64, lr float64) {
	hid, out := s.n.layers[0], s.n.layers[1]
	hidden16AVX2f64(&s.wT[0], &x[0], 1, hid.in, &hid.output[0])
	hid.act.applyBatch(hid.output)
	s.n.outputDeltas(out.forward(hid.output), target)
	hid.backprop(out)
	for j, d := range hid.delta {
		s.lrd[j] = -lr * d
	}
	update16AVX2(&s.wT[0], &s.mT[0], &x[0], hid.in, &s.lrd[0], s.n.cfg.Momentum)
	out.update(hid.output, lr, s.n.cfg.Momentum)
}

// sync copies the hidden layer's weights and momentum back into the
// network's unit-major buffers.
func (s *step16) sync() {
	hid := s.n.layers[0]
	untranspose(hid, s.wT, s.n.w)
	untranspose(hid, s.mT, s.n.dwPrev)
}

// meanPercentErrorPacked is the batched early-stopping evaluation: one
// ForwardBatch over the whole set, then the same skip-zero percentage
// accumulation as MeanPercentError, in row order.
func meanPercentErrorPacked(n *Network, p *packed, un Unscaler, s *Scratch) float64 {
	if p.n == 0 {
		return 0
	}
	out := n.ForwardBatch(p.x, p.n, s)
	var sum float64
	count := 0
	for i := 0; i < p.n; i++ {
		if p.raw[i] == 0 {
			continue
		}
		pred := un.Unscale(out[i*p.outW])
		sum += math.Abs(pred-p.raw[i]) / math.Abs(p.raw[i]) * 100
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// MeanPercentError evaluates the network's mean percentage error on the
// primary target over ds, de-normalizing predictions through un.
func MeanPercentError(n *Network, ds *Dataset, un Unscaler) float64 {
	if ds.Len() == 0 {
		return 0
	}
	return meanPercentErrorPacked(n, packDataset(ds, n.cfg.Inputs, n.cfg.Outputs), un, nil)
}

// PercentErrors returns the per-example percentage errors of the
// network on ds (primary target only).
func PercentErrors(n *Network, ds *Dataset, un Unscaler) []float64 {
	p := packDataset(ds, n.cfg.Inputs, n.cfg.Outputs)
	preds := n.ForwardBatch(p.x, p.n, nil)
	out := make([]float64, 0, p.n)
	for i := 0; i < p.n; i++ {
		if p.raw[i] == 0 {
			continue
		}
		pred := un.Unscale(preds[i*p.outW])
		out = append(out, math.Abs(pred-p.raw[i])/math.Abs(p.raw[i])*100)
	}
	return out
}
