package mathx

import (
	"math"
	"testing"
)

// The grids below sweep each function's full documented domain at a
// step fine enough to catch any cell of the interpolation tables (the
// sigmoid/tanh steps are incommensurate with the table pitch, so
// successive probes land at varying in-cell offsets).

func TestExpErrorBound(t *testing.T) {
	const bound = 2e-8
	worst := 0.0
	for x := -708.0; x <= 709.0; x += 0.000977 {
		got := Exp(x)
		want := math.Exp(x)
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
		if rel > bound {
			t.Fatalf("Exp(%g) = %g, want %g (rel err %.3g > %g)", x, got, want, rel, bound)
		}
	}
	t.Logf("Exp worst relative error on grid: %.3g", worst)
}

func TestExpSpecials(t *testing.T) {
	if got := Exp(math.NaN()); got != 0 {
		t.Errorf("Exp(NaN) = %g, want 0 (documented lower saturation)", got)
	}
	if got := Exp(math.Inf(-1)); got != 0 {
		t.Errorf("Exp(-Inf) = %g, want 0", got)
	}
	if got := Exp(math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("Exp(+Inf) = %g, want +Inf", got)
	}
	if got := Exp(-1000); got != 0 {
		t.Errorf("Exp(-1000) = %g, want 0", got)
	}
	if got := Exp(1000); !math.IsInf(got, 1) {
		t.Errorf("Exp(1000) = %g, want +Inf", got)
	}
	if got := Exp(0); got != 1 {
		t.Errorf("Exp(0) = %g, want exactly 1", got)
	}
}

func TestSigmoid32Tanh32ErrorBound(t *testing.T) {
	const bound = 2e-6
	for x := -50.0; x <= 50.0; x += 0.000767 {
		x32 := float32(x)
		if d := math.Abs(float64(Sigmoid32(x32)) - 1/(1+math.Exp(-float64(x32)))); d > bound {
			t.Fatalf("Sigmoid32(%g) abs err %.3g > %g", x, d, bound)
		}
		if d := math.Abs(float64(Tanh32(x32)) - math.Tanh(float64(x32))); d > bound {
			t.Fatalf("Tanh32(%g) abs err %.3g > %g", x, d, bound)
		}
	}
}

func TestSaturationAndSpecials(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	cases := []struct {
		name string
		f    func(float32) float32
		x    float32
		want float32
	}{
		{"Sigmoid32(+Inf)", Sigmoid32, inf, 1},
		{"Sigmoid32(-Inf)", Sigmoid32, -inf, Sigmoid32(-16)},
		{"Sigmoid32(NaN)", Sigmoid32, nan, Sigmoid32(-16)},
		{"Tanh32(+Inf)", Tanh32, inf, 1},
		{"Tanh32(-Inf)", Tanh32, -inf, -1},
		{"Tanh32(NaN)", Tanh32, nan, -1},
	}
	for _, c := range cases {
		if got := c.f(c.x); math.Abs(float64(got-c.want)) > 2e-6 {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
	// Denormal inputs sit squarely in the central table cell.
	tiny := float32(math.SmallestNonzeroFloat32)
	if got := Sigmoid32(tiny); math.Abs(float64(got)-0.5) > 2e-6 {
		t.Errorf("Sigmoid32(denormal) = %g, want ~0.5", got)
	}
	if got := Tanh32(tiny); math.Abs(float64(got)) > 2e-6 {
		t.Errorf("Tanh32(denormal) = %g, want ~0", got)
	}
}

// TestSliceScalarParity asserts the batch kernels are bit-identical to
// their scalar counterparts — the fast sweep path relies on this for
// chunk-size independence.
func TestSliceScalarParity(t *testing.T) {
	xs := make([]float64, 0, 4001)
	for x := -20.0; x <= 20.0; x += 0.01 {
		xs = append(xs, x)
	}
	xs = append(xs, math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0)

	check := func(name string, slice func([]float64), scalar func(float64) float64) {
		got := append([]float64(nil), xs...)
		slice(got)
		for i, x := range xs {
			if w := scalar(x); math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("%s slice/scalar mismatch at x=%g: %g vs %g", name, x, got[i], w)
			}
		}
	}
	check("Exp", ExpSlice, Exp)

	xs32 := make([]float32, len(xs))
	for i, x := range xs {
		xs32[i] = float32(x)
	}
	check32 := func(name string, slice func([]float32), scalar func(float32) float32) {
		got := append([]float32(nil), xs32...)
		slice(got)
		for i, x := range xs32 {
			if w := scalar(x); math.Float32bits(got[i]) != math.Float32bits(w) {
				t.Fatalf("%s slice/scalar mismatch at x=%g: %g vs %g", name, x, got[i], w)
			}
		}
	}
	check32("Sigmoid32", SigmoidSlice32, Sigmoid32)
	check32("Tanh32", TanhSlice32, Tanh32)
}

// TestSlice32VectorEdgeParity feeds non-finite and boundary inputs
// through the *vectorized* span of the float32 slice kernels (the
// general parity test keeps its specials in the scalar tail): the
// slice is sized a multiple of 8 and every lane position cycles through
// the edge set, so the SIMD clamp/truncate path must reproduce the
// scalar at32 bits for all of them.
func TestSlice32VectorEdgeParity(t *testing.T) {
	edges := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 1.4e-45, -1.4e-45,
		math.MaxFloat32, -math.MaxFloat32,
		-16, 16, -8, 8, -15.9999, 15.9999, 0.5,
	}
	xs := make([]float32, 8*len(edges))
	for i := range xs {
		// offset by lane so each edge value visits every SIMD lane
		xs[i] = edges[(i+i/8)%len(edges)]
	}
	check := func(name string, slice func([]float32), scalar func(float32) float32) {
		got := append([]float32(nil), xs...)
		slice(got)
		for i, x := range xs {
			if w := scalar(x); math.Float32bits(got[i]) != math.Float32bits(w) {
				t.Fatalf("%s vector/scalar mismatch at lane %d x=%g: %g vs %g", name, i, x, got[i], w)
			}
		}
	}
	check("Sigmoid32", SigmoidSlice32, Sigmoid32)
	check("Tanh32", TanhSlice32, Tanh32)
}

func benchInput() []float64 {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i%200)/10 - 10
	}
	return xs
}

func BenchmarkExpSlice(b *testing.B) {
	src, buf := benchInput(), make([]float64, 4096)
	b.SetBytes(int64(len(src) * 8))
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		ExpSlice(buf)
	}
}

func BenchmarkSigmoidSlice32(b *testing.B) {
	src64 := benchInput()
	src, buf := make([]float32, len(src64)), make([]float32, len(src64))
	for i, x := range src64 {
		src[i] = float32(x)
	}
	b.SetBytes(int64(len(src) * 4))
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		SigmoidSlice32(buf)
	}
}
