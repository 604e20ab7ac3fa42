package ann

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/encoding"
	"repro/internal/stats"
)

// rangeSpec describes one axis of a test space for RangeNet: its
// settings, its controller (or -1), and whether it is one-hot.
type rangeSpec struct {
	card, ctl int
	oneHot    bool
}

// rangeAxes builds the encoding.Axis list of specs, drawing each numeric
// value from draw.
func rangeAxes(specs []rangeSpec, draw func() float64) []encoding.Axis {
	var axes []encoding.Axis
	off := 0
	for _, sp := range specs {
		ax := encoding.Axis{Off: off, Cols: 1, Card: sp.card, Ctl: sp.ctl}
		ctlCard := 1
		if sp.ctl >= 0 {
			ctlCard = specs[sp.ctl].card
		}
		if sp.oneHot {
			ax.Cols = sp.card
			ax.Inputs = make([]float64, sp.card*sp.card)
			for k := range sp.card {
				ax.Inputs[k*sp.card+k] = 1
			}
		} else {
			ax.Inputs = make([]float64, ctlCard*sp.card)
			for i := range ax.Inputs {
				ax.Inputs[i] = draw()
			}
		}
		axes = append(axes, ax)
		off += ax.Cols
	}
	return axes
}

// encodeRange writes rows [lo, lo+rows) of the space axes describe as
// input vectors, the last axis fastest: the rows RangeNet scores
// without them.
func encodeRange(axes []encoding.Axis, lo, rows int) []float64 {
	width := 0
	for _, ax := range axes {
		width += ax.Cols
	}
	xs := make([]float64, rows*width)
	choices := make([]int, len(axes))
	for r := 0; r < rows; r++ {
		idx := lo + r
		for a := len(axes) - 1; a >= 0; a-- {
			choices[a] = idx % axes[a].Card
			idx /= axes[a].Card
		}
		for a, ax := range axes {
			row := choices[a]
			if ax.Ctl >= 0 {
				row += choices[ax.Ctl] * ax.Card
			}
			copy(xs[r*width+ax.Off:], ax.Inputs[row*ax.Cols:(row+1)*ax.Cols])
		}
	}
	return xs
}

// rangeSpaces are the test spaces: a one-hot last axis of two columns
// (sweep's testSpace), a dependent axis mid-space and one last, a
// single-valued axis first and last with a boolean-sized axis and a
// one-hot axis between them, and a one-axis space whose parent level
// is the bias.
var rangeSpaces = [][]rangeSpec{
	{{4, -1, false}, {5, -1, false}, {3, -1, false}, {2, -1, true}},
	{{3, -1, false}, {2, -1, false}, {2, 0, false}, {3, -1, false}, {2, -1, false}},
	{{3, -1, false}, {2, -1, false}, {3, 0, false}},
	{{1, -1, false}, {2, -1, false}, {3, -1, true}, {4, -1, false}, {1, -1, false}},
	{{7, -1, false}},
}

// TestRangeForwardParity compares ForwardRange with the scalar
// reference (sumBatch's loop and the per-element activation, layer by
// layer) over encodeRange's rows, bit for bit: every window of 0–13
// rows and the whole space, for sigmoid and tanh hidden layers, a
// second hidden layer, and inputs drawn from [-1, 2) with one value in
// eight scaled by 300, so some rows take the sigmoid's scalar hand-off
// in either half, plus an infinite input value that turns sums into
// ±Inf and NaN. It runs at each sigmoid width, so both the fused
// kernel and the gather-add kernel with exactBatch are checked.
func TestRangeForwardParity(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("the range path needs AVX2")
	}
	eachExpWidth(func() { rangeParity(t) })
}

func rangeParity(t *testing.T) {
	rng := stats.NewRNG(0x9A7E)
	draws := 0
	draw := func() float64 {
		draws++
		switch {
		case draws%53 == 0:
			return math.Inf(1)
		case draws%8 == 0:
			return 300 * rng.Range(-1, 2)
		}
		return rng.Range(-1, 2)
	}
	s := NewScratch()
	for si, specs := range rangeSpaces {
		axes := rangeAxes(specs, draw)
		width := axes[len(axes)-1].Off + axes[len(axes)-1].Cols
		for _, shape := range []struct {
			hidden     []int
			hAct, oAct Activation
		}{
			{[]int{16}, Sigmoid, Linear},
			{[]int{16}, Sigmoid, Sigmoid},
			{[]int{16}, Tanh, Linear},
			{[]int{16, 5}, Sigmoid, Linear},
		} {
			n := New(Config{
				Inputs: width, Hidden: shape.hidden, Outputs: 2,
				HiddenAct: shape.hAct, OutputAct: shape.oAct,
				LearningRate: 0.1, Momentum: 0.5, InitRange: 4,
				Seed: rng.Uint64(),
			})
			r := NewRangeNet(n, axes)
			if r == nil {
				t.Fatalf("space %d: no range net on an AVX2 CPU", si)
			}
			if want := exp512 && shape.hAct == Sigmoid; r.fused != want {
				t.Fatalf("space %d, hidden %s: fused kernel %v, want %v", si, shape.hAct, r.fused, want)
			}
			check := func(lo, rows int) {
				got := r.ForwardRange(lo, rows, s)
				want := scalarForward(n, encodeRange(axes, lo, rows), rows)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("space %d, hidden %v %s, output %s, rows [%d,%d), 8-lane sigmoid %v: output %d: range %g (bits %x), scalar %g (bits %x)",
							si, shape.hidden, shape.hAct, shape.oAct, lo, lo+rows, exp512, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
			check(0, r.size)
			for rows := 0; rows <= 13 && rows <= r.size; rows++ {
				for lo := 0; lo+rows <= r.size; lo++ {
					check(lo, rows)
				}
			}
		}
	}
}

// kernelEdges are sigmoid inputs y around the edges of the fused
// kernel's one-multiply range (-y·log2e rounding to 1023 or 1024, near
// y = -709.44, and to -1022 or -1023, near y = 708.74) and math.Exp's
// underflow (|y| near 745.13), beside edgeInputs.
var kernelEdges = append(append([]float64(nil), edgeInputs...),
	-709.43, -709.44, 709.43, 708.74, 708.75, -708.74, 745.13, -745.13, 745.14, -745.14)

// TestGatherSigmoidEdgeRows plants each kernelEdges value in each of
// the 16 units, so in either half, as the sum of rows at the start,
// middle and end of one gatherSigmoid16AVX512 call (through
// sigmoidRows, with its scalar hand-off), and compares every stored
// value with gatherAdd16AVX2's sums through sigmoidScalar, bit for bit.
// Each call starts at setting 1 of 3 with two product columns, so
// parents change mid-call; the planted unit's products are 0, so its
// sum is the planted value (+0 for -0).
func TestGatherSigmoidEdgeRows(t *testing.T) {
	if !exp512 {
		t.Skip("the fused kernel runs where exp512 holds")
	}
	rng := stats.NewRNG(0xED6E)
	const card, cols, k = 3, 2, 1
	prods := make([]float64, card*cols*16)
	for _, rows := range []int{1, 2, 7} {
		par := make([]float64, ((k+rows-1)/card+1)*16)
		for _, e := range kernelEdges {
			for u := 0; u < 16; u++ {
				for _, r := range []int{0, rows / 2, rows - 1} {
					for i := range par {
						par[i] = rng.Range(-3, 3)
					}
					for i := range prods {
						prods[i] = rng.Range(-1, 1)
						if i%16 == u {
							prods[i] = 0
						}
					}
					par[(k+r)/card*16+u] = e
					checkGatherSigmoid(t, par, prods, card, cols, k, rows, fmt.Sprintf("%g at unit %d of row %d of %d", e, u, r, rows))
				}
			}
		}
	}
}

// checkGatherSigmoid runs sigmoidRows and the reference, gatherAdd16AVX2
// then sigmoidScalar, over the same rows and compares them bit for bit.
func checkGatherSigmoid(t *testing.T, par, prods []float64, card, cols, k, rows int, what string) {
	t.Helper()
	got := make([]float64, rows*16)
	sigmoidRows(par, prods, card, cols, k, rows, got)
	want := make([]float64, rows*16)
	gatherAdd16AVX2(&par[0], &prods[0], card, cols, k, rows, &want[0])
	sigmoidScalar(want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d: fused %g (bits %x), gather-add and scalar sigmoid %g (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzGatherSigmoid decodes 16–48 little-endian float64 values as the
// parent sums of 1–3 rows, one parent per row, adds a fixed product row
// and compares sigmoidRows with gatherAdd16AVX2 and sigmoidScalar, bit
// for bit. Its seed corpus (testdata/fuzz/FuzzGatherSigmoid) holds edge
// inputs in either half of rows at the start, middle and end.
func FuzzGatherSigmoid(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !exp512 {
			return
		}
		rows := len(raw) / 128
		if rows < 1 || rows > 3 {
			return
		}
		par := make([]float64, rows*16)
		for i := range par {
			par[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		prods := make([]float64, 16)
		for j := range prods {
			prods[j] = 0.25 * float64(j-8)
		}
		checkGatherSigmoid(t, par, prods, 1, 1, 0, rows, fmt.Sprintf("parent sums %v", par))
	})
}
