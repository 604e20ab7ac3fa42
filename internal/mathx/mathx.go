// Package mathx provides bounded-error approximations of the
// transcendental functions on the sweep hot path: exp in float64, and
// the logistic sigmoid and tanh in float32, as scalars and as in-place
// batch kernels. They back the opt-in fast32 kernel mode in
// internal/ann and its denormalization in internal/core; the exact
// mode never touches this package.
//
// # Error contract
//
// Each function documents a maximum error versus the true mathematical
// function, asserted by exhaustive-grid tests in this package:
//
//	Exp       relative error ≤ 2e-8   on [-708, 709]
//	Sigmoid32 absolute error ≤ 2e-6   everywhere
//	Tanh32    absolute error ≤ 2e-6   everywhere
//
// Outside the stated Exp domain it saturates (0 below, +Inf above)
// instead of drifting; Sigmoid32 and Tanh32 saturate to their
// asymptotes, so the absolute bound holds on the whole real line.
//
// # Determinism
//
// Every function here is a pure function of its bits-in: the only
// operations used are IEEE-754 primitives with a single rounding
// (+, -, *, table loads, float conversions) and math.FMA, which Go
// defines as correctly rounded on every platform. The interpolation
// tables are built at init time from the same primitives. Results are
// therefore bit-identical across runs, goroutines, and architectures.
// Non-finite inputs are clamped deterministically: NaN maps to the
// function's lower saturation value rather than propagating, so batch
// kernels never hit the (platform-dependent) float→int conversion of
// NaN.
package mathx

import "math"

// Cody-Waite split of ln 2: ln2Hi+ln2Lo ≈ ln 2 with ln2Hi exactly
// representable in the high bits, so x - k*ln2Hi is exact for the k
// range used here and the reduction error is confined to ln2Lo.
const (
	log2E = 1.44269504088896338700e+00
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10

	// expLo/expHi bound the domain on which the relative-error
	// contract holds; outside, Exp saturates to 0 / +Inf.
	expLo = -708.0
	expHi = 709.0
)

// expPoly evaluates exp(r) for |r| ≤ ln2/2 by a degree-7 Taylor
// polynomial (max relative error ≈ 5e-9 at the interval edge, below
// the documented 2e-8 contract with margin for the reduction).
func expPoly(r float64) float64 {
	p := math.FMA(r, 1.0/5040, 1.0/720)
	p = math.FMA(r, p, 1.0/120)
	p = math.FMA(r, p, 1.0/24)
	p = math.FMA(r, p, 1.0/6)
	p = math.FMA(r, p, 0.5)
	p = math.FMA(r, p, 1)
	return math.FMA(r, p, 1)
}

// Exp approximates e**x with relative error ≤ 2e-8 on [-708, 709].
// Below -708 it returns 0 (true exp is < 3.3e-308 there, the edge of
// the normal float64 range); above 709 it returns +Inf; NaN maps to
// the lower saturation, 0.
func Exp(x float64) float64 {
	if !(x >= expLo) { // catches NaN and underflow in one branch
		return 0
	}
	if x > expHi {
		return math.Inf(1)
	}
	// x = k·ln2 + r with |r| ≤ ln2/2; exp(x) = 2^k · exp(r).
	kf := math.Floor(math.FMA(x, log2E, 0.5))
	r := math.FMA(-kf, ln2Hi, x)
	r = math.FMA(-kf, ln2Lo, r)
	// 2^k by exponent-field construction; k ∈ [-1022, 1023] on the
	// clamped domain so the result is a normal float64.
	pow2k := math.Float64frombits(uint64(int64(kf)+1023) << 52)
	return expPoly(r) * pow2k
}

// ExpSlice replaces each xs[i] with Exp(xs[i]).
func ExpSlice(xs []float64) {
	for i, x := range xs {
		xs[i] = Exp(x)
	}
}

// table is a uniform-grid linear interpolator on [min, min+n*h] in
// float32. at32 clamps out-of-range and NaN inputs to the table edges,
// whose entries hold the function's saturation values.
type table struct {
	invH float32 // 1/h
	bias float32 // -min/h, so u = x*invH + bias is the real-valued index
	// maxU is the largest float32 strictly below n, so int(u) ≤ n-1
	// without a second bounds branch (which also keeps at32 within the
	// compiler's inlining budget).
	maxU float32
	v    []float32
}

func buildTable(min, max float64, n int, f func(float64) float64) *table {
	h := (max - min) / float64(n)
	t := &table{
		invH: float32(1 / h),
		bias: float32(-min / h),
		maxU: math.Nextafter32(float32(n), 0),
		v:    make([]float32, n+1),
	}
	for i := 0; i <= n; i++ {
		t.v[i] = float32(f(min + float64(i)*h))
	}
	return t
}

// at32 interpolates the table at x. The index math uses explicitly
// rounded float32 steps (no contraction), so the chosen cell — and
// therefore the result bits — are identical on every architecture. The
// vector kernel behind the Slice32 functions reproduces exactly this op
// sequence (each step single-rounded), so scalar and batch results
// match bit for bit.
func (t *table) at32(x float32) float32 {
	u := float32(x*t.invH) + t.bias
	if !(u >= 0) { // NaN and below-range clamp to the lower edge
		u = 0
	} else if u > t.maxU {
		u = t.maxU
	}
	i := int(u)
	f := u - float32(i)
	lo := t.v[i]
	return lo + float32(f*(t.v[i+1]-lo))
}

// Interpolation error of a uniform linear table is h²/8·max|f″|; the
// grids below keep that, plus the saturation tail beyond the table
// range, under the documented absolute bounds.
var (
	// σ on [-16,16], 4096 cells: h=1/128 → interp ≤ 7.4e-7 (max|σ″| =
	// 1/(6√3)), tail σ(-16) ≈ 1.1e-7.
	sigmoidTab = buildTable(-16, 16, 4096, func(x float64) float64 {
		return 1 / (1 + Exp(-x))
	})
	// tanh on [-8,8], 8192 cells: h=1/512 → interp ≤ 3.7e-7 (max|tanh″|
	// ≈ 0.77), tail 1-tanh(8) ≈ 2.3e-7.
	tanhTab = buildTable(-8, 8, 8192, func(x float64) float64 {
		e := Exp(2 * x)
		return (e - 1) / (e + 1)
	})
)

// Sigmoid32 approximates the logistic function in float32 with
// absolute error ≤ 2e-6; NaN maps to the lower saturation, ~0.
func Sigmoid32(x float32) float32 { return sigmoidTab.at32(x) }

// SigmoidSlice32 replaces each xs[i] with Sigmoid32(xs[i]).
func SigmoidSlice32(xs []float32) { sigmoidTab.slice32(xs) }

// slice32 applies at32 in place, routing the bulk of the slice through
// the vectorized lerp kernel where one exists (sliceLerp32 returns how
// many leading elements it handled — 0 on platforms without one).
func (t *table) slice32(xs []float32) {
	for i := sliceLerp32(t, xs); i < len(xs); i++ {
		xs[i] = t.at32(xs[i])
	}
}

// Tanh32 approximates the hyperbolic tangent in float32 with absolute
// error ≤ 2e-6; NaN maps to the lower saturation, ~-1.
func Tanh32(x float32) float32 { return tanhTab.at32(x) }

// TanhSlice32 replaces each xs[i] with Tanh32(xs[i]).
func TanhSlice32(xs []float32) { tanhTab.slice32(xs) }
