package ann

import (
	"fmt"

	"repro/internal/encoding"
)

// RangeNet scores the rows of a mixed-radix input space by flat index,
// without the rows: the space is a list of encoding.Axis blocks (each
// a run of input columns whose values depend only on the axis's own
// setting and, for a dependent axis, its controller's), and row i is
// the input vector of the settings that i spells in mixed radix over
// the axes' Cards, the last axis fastest, as space.Space numbers design
// points. ForwardRange's outputs are bit for bit ForwardBatch's over
// the same rows encoded.
//
// Layer 0's sums come from product tables instead of multiply-adds: for
// every axis, setting and column, the 16 products weight × input value,
// each the IEEE product of the same two operands sumBatch multiplies.
// A prefix of settings (axes 0..a) leaves the same partial sums in
// every row that shares it, so the walk computes each prefix's sums
// once per call, as its parent prefix's sums plus the axis's products
// in ascending column order, the parent's sums as the first operand:
// the adds sumBatch does per row, in its order, starting from the
// bias. The last axis's level writes layer 0 (see ForwardRange).
type RangeNet struct {
	n     *Network
	bias  []float64 // layer 0's 16 biases: the sums before any input
	axes  []prodAxis
	size  int  // rows in the space: the product of the Cards
	fused bool // the last level runs gatherSigmoid16AVX512
}

// prodAxis is one axis's layer-0 product table and the shape of its
// level of prefixes.
type prodAxis struct {
	card, cols int
	ctl        int // controlling axis, or -1
	ctlCard    int // settings of the controller (1 when ctl is -1)
	stride     int // rows per setting: the product of the later Cards
	// span is the number of this level's prefixes that share one
	// controller setting: the product of the Cards of axes ctl+1
	// through this one.
	span int
	// prods[((c*card+k)*cols+i)*16+j] is unit j's weight on column i
	// times that column's value at setting k under controller setting c.
	prods []float64
}

// maxRangeProducts bounds one network's product tables (in float64s).
// Each axis holds Cards × Cols × 16 products per controller setting,
// quadratic in a nominal axis's level count; a space past the bound
// encodes rows instead.
const maxRangeProducts = 1 << 20

// NewRangeNet builds n's product tables over the space axes describe
// (encoding.Encoder.Axes for a design space's encoding).
// It returns nil where the range path does not apply: layer 0 is not a
// 16-unit layer on an AVX2 CPU (kernelAsm16's gate), or the tables
// would outgrow maxRangeProducts. It panics when the axes do not tile
// the network's inputs in ascending column order or a table has the
// wrong length.
func NewRangeNet(n *Network, axes []encoding.Axis) *RangeNet {
	l := n.layers[0]
	if !kernelAsm16(l, 1) || len(axes) == 0 {
		return nil
	}
	r := &RangeNet{n: n, axes: make([]prodAxis, len(axes)), size: 1}
	off, total := 0, 0
	for a, ax := range axes {
		if ax.Off != off || ax.Cols < 1 || ax.Card < 1 || ax.Ctl < -1 || ax.Ctl >= a {
			panic(fmt.Sprintf("ann: range axis %d (off %d, %d columns, %d settings, controller %d) does not follow input %d", a, ax.Off, ax.Cols, ax.Card, ax.Ctl, off))
		}
		p := prodAxis{card: ax.Card, cols: ax.Cols, ctl: ax.Ctl, ctlCard: 1}
		if ax.Ctl >= 0 {
			p.ctlCard = axes[ax.Ctl].Card
		}
		if len(ax.Inputs) != p.ctlCard*ax.Card*ax.Cols {
			panic(fmt.Sprintf("ann: range axis %d has %d input values, want %d", a, len(ax.Inputs), p.ctlCard*ax.Card*ax.Cols))
		}
		r.axes[a] = p
		off += ax.Cols
		total += len(ax.Inputs) * 16
		r.size *= ax.Card
	}
	if off != l.in {
		panic(fmt.Sprintf("ann: range axes cover %d inputs, network has %d", off, l.in))
	}
	if total > maxRangeProducts {
		return nil
	}
	stride := 1
	for a := len(axes) - 1; a >= 0; a-- {
		p, ax := &r.axes[a], axes[a]
		p.stride = stride
		stride *= p.card
		p.span = 1
		if p.ctl >= 0 {
			for b := p.ctl + 1; b <= a; b++ {
				p.span *= axes[b].Card
			}
		}
		p.prods = make([]float64, len(ax.Inputs)*16)
		for row := 0; row < p.ctlCard*p.card; row++ {
			for i := 0; i < p.cols; i++ {
				x := ax.Inputs[row*p.cols+i]
				dst := p.prods[(row*p.cols+i)*16:][:16]
				for j := range dst {
					dst[j] = l.w[j*(l.in+1)+ax.Off+i] * x
				}
			}
		}
	}
	r.bias = make([]float64, 16)
	for j := range r.bias {
		r.bias[j] = l.w[j*(l.in+1)+l.in]
	}
	r.fused = sigmoid512 && l.act == Sigmoid
	return r
}

// ForwardRange runs rows [lo, lo+rows) of the space through the
// network and returns the flat rows × Outputs activation matrix, owned
// by s as in ForwardBatch. Layer 0 comes from the prefix sums (see
// RangeNet); the last axis's level writes it. Where sigmoid512 holds
// and layer 0 is sigmoid, one AVX-512 kernel adds that axis's products
// to the parent sums and runs the sigmoid on both 8-unit halves as two
// EXPV chains, stopping before any row with a lane outside the
// one-multiply range, which gets its sums from the gather-add kernel
// and sigmoidScalar, as exactBatch hands off a group. Elsewhere the
// gather-add kernel writes the sums and the activation runs as in
// ForwardBatch. The layers after layer 0 run ForwardBatch's loop.
func (r *RangeNet) ForwardRange(lo, rows int, s *Scratch) []float64 {
	if lo < 0 || rows < 0 || lo > r.size-rows {
		panic(fmt.Sprintf("ann: rows [%d,%d) outside the range space's [0,%d)", lo, lo+rows, r.size))
	}
	if s == nil {
		s = NewScratch()
	}
	s.ensure(r.n, rows)
	out := s.acts[0][:rows*16]
	if rows > 0 {
		par := r.bias
		last := len(r.axes) - 1
		for a := range r.axes {
			p := &r.axes[a]
			first := lo / p.stride
			cnt := (lo+rows-1)/p.stride - first + 1
			dst := out
			if a < last {
				s.lvl[a&1] = grow(s.lvl[a&1], cnt*16)
				dst = s.lvl[a&1]
			}
			// The parent level starts at prefix first/card: par[0:16]
			// is this level's first parent.
			p.level(par, first, cnt, dst, a == last && r.fused)
			par = dst
		}
		if !r.fused {
			r.n.layers[0].act.applyBatch(out)
		}
	}
	return r.n.forwardFrom(1, out, rows, s)
}

// level writes the sums of prefixes [first, first+cnt) of this axis's
// level into dst, from the parent sums par (par[0:16] belongs to
// prefix first's parent), through the sigmoid where sigmoid is set.
// Each run of prefixes that share a controller setting is one call.
func (p *prodAxis) level(par []float64, first, cnt int, dst []float64, sigmoid bool) {
	run := func(par, prods []float64, k, rows int, dst []float64) {
		if sigmoid {
			sigmoidRows(par, prods, p.card, p.cols, k, rows, dst)
		} else {
			gatherAdd16AVX2(&par[0], &prods[0], p.card, p.cols, k, rows, &dst[0])
		}
	}
	if p.ctl < 0 {
		run(par, p.prods, first%p.card, cnt, dst)
		return
	}
	table := p.card * p.cols * 16
	for done := 0; done < cnt; {
		i := first + done
		c := i / p.span % p.ctlCard
		rows := min(cnt-done, p.span-i%p.span)
		run(par[(i/p.card-first/p.card)*16:], p.prods[c*table:(c+1)*table], i%p.card, rows, dst[done*16:])
		done += rows
	}
}

// sigmoidRows is level's fused path over rows prefixes that share a
// controller setting: gatherSigmoid16AVX512 up to the first row it
// leaves to the scalar path, that row's sums from gatherAdd16AVX2 and
// its 16 sigmoids from sigmoidScalar, then the kernel again.
func sigmoidRows(par, prods []float64, card, cols, k, rows int, dst []float64) {
	for {
		done := gatherSigmoid16AVX512(&par[0], &prods[0], card, cols, k, rows, &dst[0])
		if done == rows {
			return
		}
		k += done
		par, k = par[k/card*16:], k%card
		dst = dst[done*16:]
		gatherAdd16AVX2(&par[0], &prods[0], card, cols, k, 1, &dst[0])
		sigmoidScalar(dst[:16])
		rows -= done + 1
		if rows == 0 {
			return
		}
		dst = dst[16:]
		if k++; k == card {
			par, k = par[16:], 0
		}
	}
}
