// Package encoding maps design points onto neural-network inputs
// following §3.3 and Figure 3.4 of the paper: cardinal and continuous
// parameters become single inputs minimax-normalized to [0,1] over
// their design-space range, nominal parameters are one-hot encoded (one
// input per level, exactly one set to 1), and boolean parameters become
// single 0/1 inputs. Targets use the same minimax treatment via Scaler.
//
// An Encoder tabulates every axis's input values once, per setting
// (and per controller setting for a dependent axis). Encode and
// EncodeRange look rows up in those tables, and Axes hands them out,
// so that a full-space sweep can compute each axis's effect on the
// network once per setting instead of encoding every point.
package encoding

import (
	"fmt"
	"math"

	"repro/internal/space"
)

// Encoder converts choice vectors of one design space into input
// vectors.
type Encoder struct {
	sp    *space.Space
	width int
	lo    []float64 // per numeric param: range min
	hi    []float64 // per numeric param: range max
	off   []int     // per param: first input index
	axes  []axis    // per param: the input values Encode looks up
}

// axis holds one numeric or boolean parameter's input values, computed
// once: vals[c*card+k] is the input at own choice k and controller
// choice c, where the controller is parameter ctl (c is 0 when ctl is
// -1). vals is nil for a nominal parameter, which is one-hot encoded.
type axis struct {
	ctl, card int
	vals      []float64
}

// NewEncoder builds an encoder for sp. Ranges for minimax normalization
// come from the space definition itself (the study's min/max values),
// which is what the paper normalizes by. It tabulates each numeric or
// boolean parameter's input value for every setting (for a dependent
// parameter, every controller setting and setting), so that Encode
// looks values up instead of normalizing per point.
func NewEncoder(sp *space.Space) *Encoder {
	n := sp.NumParams()
	e := &Encoder{
		sp:   sp,
		lo:   make([]float64, n),
		hi:   make([]float64, n),
		off:  make([]int, n),
		axes: make([]axis, n),
	}
	w := 0
	choices := make([]int, n)
	for i := 0; i < n; i++ {
		e.off[i] = w
		p := &sp.Params[i]
		a := axis{ctl: -1, card: p.Card()}
		if p.Kind == space.Nominal {
			e.axes[i] = a
			w += a.card
			continue
		}
		e.lo[i], e.hi[i] = sp.ValueRange(i)
		ctlCard := 1
		if p.DependsOn != "" {
			for j := range i {
				if sp.Params[j].Name == p.DependsOn {
					a.ctl = j
				}
			}
			ctlCard = sp.Params[a.ctl].Card()
		}
		a.vals = make([]float64, ctlCard*a.card)
		for c := range ctlCard {
			if a.ctl >= 0 {
				choices[a.ctl] = c
			}
			for k := range a.card {
				choices[i] = k
				a.vals[c*a.card+k] = e.input(i, sp.Value(choices, i))
			}
		}
		e.axes[i] = a
		w++
	}
	e.width = w
	return e
}

// input is the network input of numeric or boolean parameter i at
// setting v: a boolean's 0/1 as it is, any other value minimax-normalized
// to [0,1].
func (e *Encoder) input(i int, v float64) float64 {
	switch {
	case e.sp.Params[i].Kind == space.Boolean:
		return v
	case e.hi[i] > e.lo[i]:
		return (v - e.lo[i]) / (e.hi[i] - e.lo[i])
	default:
		return 0.5 // single-valued axis carries no information
	}
}

// Width returns the number of network inputs the encoding produces.
func (e *Encoder) Width() int { return e.width }

// Axis is one parameter's block of network inputs: the columns Encode
// writes for it and every value they take there.
type Axis struct {
	// Off is the block's first input column; Cols is its width, the
	// level count of a nominal parameter and 1 otherwise.
	Off, Cols int
	// Card is the parameter's number of settings; Ctl is the index of
	// the parameter it depends on, or -1.
	Card, Ctl int
	// Inputs holds the block's Cols values for every setting, row by
	// row: row c*Card+k is own choice k under controller choice c (c is
	// 0 when Ctl is -1). A nominal parameter's rows are one-hot.
	Inputs []float64
}

// Axes returns every parameter's Axis in parameter order, so that the
// blocks tile [0, Width()) in ascending column order: the per-axis
// tables Encode looks its values up in, for a caller that evaluates
// the inputs' effect once per setting instead of once per point.
func (e *Encoder) Axes() []Axis {
	out := make([]Axis, len(e.axes))
	for i, a := range e.axes {
		ax := Axis{Off: e.off[i], Cols: 1, Card: a.card, Ctl: a.ctl, Inputs: append([]float64(nil), a.vals...)}
		if a.vals == nil {
			ax.Cols = a.card
			ax.Inputs = make([]float64, a.card*a.card)
			for k := range a.card {
				ax.Inputs[k*a.card+k] = 1
			}
		}
		out[i] = ax
	}
	return out
}

// Spec is the serializable description of an Encoder: the input width
// and the per-parameter normalization ranges and input offsets. An
// Encoder is fully determined by its Space, so a Spec is redundant by
// construction — which is exactly what makes it a cross-check: a model
// bundle stores the Spec its networks were trained against, and a
// loader rebuilds the encoder from the stored space and verifies the
// two agree before serving a single prediction.
type Spec struct {
	Width int       `json:"width"`
	Lo    []float64 `json:"lo"`  // per param: normalization range min (0 for nominal)
	Hi    []float64 `json:"hi"`  // per param: normalization range max (0 for nominal)
	Off   []int     `json:"off"` // per param: first input index
}

// Spec captures the encoder's parameters for serialization.
func (e *Encoder) Spec() Spec {
	return Spec{
		Width: e.width,
		Lo:    append([]float64(nil), e.lo...),
		Hi:    append([]float64(nil), e.hi...),
		Off:   append([]int(nil), e.off...),
	}
}

// Matches reports whether s describes exactly this encoder; a non-nil
// error names the first disagreement.
func (e *Encoder) Matches(s Spec) error {
	if s.Width != e.width {
		return fmt.Errorf("encoding: spec width %d, encoder produces %d inputs", s.Width, e.width)
	}
	n := e.sp.NumParams()
	if len(s.Lo) != n || len(s.Hi) != n || len(s.Off) != n {
		return fmt.Errorf("encoding: spec describes %d/%d/%d params, space has %d",
			len(s.Lo), len(s.Hi), len(s.Off), n)
	}
	for i := 0; i < n; i++ {
		if s.Lo[i] != e.lo[i] || s.Hi[i] != e.hi[i] {
			return fmt.Errorf("encoding: param %q normalization range [%g,%g] in spec, encoder has [%g,%g]",
				e.sp.Params[i].Name, s.Lo[i], s.Hi[i], e.lo[i], e.hi[i])
		}
		if s.Off[i] != e.off[i] {
			return fmt.Errorf("encoding: param %q at input offset %d in spec, encoder has %d",
				e.sp.Params[i].Name, s.Off[i], e.off[i])
		}
	}
	return nil
}

// Encode writes the encoded representation of the choice vector into
// dst, which must have length Width(), and returns dst. Passing nil
// allocates.
func (e *Encoder) Encode(choices []int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, e.width)
	}
	if len(dst) != e.width {
		panic("encoding: destination has wrong width")
	}
	clear(dst)
	for i, a := range e.axes {
		switch {
		case a.vals == nil:
			dst[e.off[i]+choices[i]] = 1
		case a.ctl >= 0:
			dst[e.off[i]] = a.vals[choices[a.ctl]*a.card+choices[i]]
		default:
			dst[e.off[i]] = a.vals[choices[i]]
		}
	}
	return dst
}

// EncodeIndex encodes the design point with the given flat index.
func (e *Encoder) EncodeIndex(index int, dst []float64) []float64 {
	return e.Encode(e.sp.Choices(index), dst)
}

// EncodeRange encodes the design points with flat indices [start,
// start+rows) into dst as a flat row-major matrix of rows×Width()
// values, and returns dst (allocated when nil). It rides the space's
// chunked enumeration, so encoding a sweep chunk costs no per-point
// choice-vector allocations. Each row is bit-identical to EncodeIndex
// on the same index.
func (e *Encoder) EncodeRange(start, rows int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, rows*e.width)
	}
	if len(dst) != rows*e.width {
		panic(fmt.Sprintf("encoding: destination has %d slots for %d rows × %d inputs", len(dst), rows, e.width))
	}
	r := 0
	for _, choices := range e.sp.ChunkAt(start, rows) {
		e.Encode(choices, dst[r*e.width:(r+1)*e.width])
		r++
	}
	return dst
}

// Scaler minimax-normalizes a target metric to [0,1] and back (§3.3:
// "target values ... are encoded in the same way as inputs" and
// predictions are scaled back to the actual range before error
// calculations).
type Scaler struct {
	Lo, Hi float64
}

// FitScaler builds a scaler from observed target values, padding the
// range by pad (fraction, e.g. 0.05) on each side so that unseen design
// points slightly outside the training range remain representable.
func FitScaler(values []float64, pad float64) Scaler {
	if len(values) == 0 {
		return Scaler{0, 1}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if span <= 0 {
		span = math.Abs(hi)
		if span == 0 {
			span = 1
		}
	}
	return Scaler{Lo: lo - pad*span, Hi: hi + pad*span}
}

// Scale maps an actual value to normalized space.
func (s Scaler) Scale(v float64) float64 {
	if s.Hi == s.Lo {
		return 0.5
	}
	return (v - s.Lo) / (s.Hi - s.Lo)
}

// Unscale maps a normalized prediction back to the actual range.
func (s Scaler) Unscale(v float64) float64 {
	return s.Lo + v*(s.Hi-s.Lo)
}
