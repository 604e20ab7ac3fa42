package ann

import (
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/stats"
)

// The forward pass's vector kernels (sigmoidAVX512, sigmoidAVX2,
// expAVX512, expAVX2, hidden16AVX2f64 and output16AVX2 on amd64) must
// reproduce the scalar definitions bit for bit. On machines where they
// do not run, these tests compare the scalar path with itself and
// always pass.

// eachExpWidth runs check with the sigmoid and exp kernels the CPU
// selects and, where those are the 8-lane ones, again with them off, so
// that the 4-lane kernels are checked on whole groups and not only in
// tails.
func eachExpWidth(check func()) {
	check()
	if exp512 {
		exp512 = false
		defer func() { exp512 = true }()
		check()
	}
}

// checkSigmoidExact runs Sigmoid.applyBatch over a copy of ys and
// compares every element with the scalar apply reference, bit for bit.
func checkSigmoidExact(t *testing.T, ys []float64) {
	t.Helper()
	got := append([]float64(nil), ys...)
	Sigmoid.applyBatch(got)
	for i, y := range ys {
		want := Sigmoid.apply(y)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("sigmoid(%g) (bits %x) at %d of %d, 8-lane kernel %v: applyBatch %g (bits %x), apply %g (bits %x)",
				y, math.Float64bits(y), i, len(ys), exp512, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// checkExpExact runs ExpBatch over a copy of xs and compares every
// element with math.Exp, bit for bit.
func checkExpExact(t *testing.T, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	ExpBatch(got)
	for i, x := range xs {
		want := math.Exp(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%g) (bits %x) at %d of %d, 8-lane kernel %v: ExpBatch %g (bits %x), math.Exp %g (bits %x)",
				x, math.Float64bits(x), i, len(xs), exp512, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// edgeLanes calls check with every edge input placed at each lane of a
// 4-group between ordinary values, and at each position of a 1–3
// element tail, so a vector kernel's scalar hand-off runs mid-slice and
// the tail loop sees the same values. The 4-group starts after 8 or 12
// ordinary values, so it fills either half of an 8-lane group.
func edgeLanes(check func(ys []float64)) {
	ordinary := []float64{0.5, -1.25, 3, -7, 0.1, 2.5, -3, 40}
	for _, e := range edgeInputs {
		for lane := 0; lane < 4; lane++ {
			group := []float64{-0.75, 1.5, 6, -12}
			group[lane] = e
			for _, prefix := range [][]float64{ordinary, append(ordinary[:4:4], ordinary...)} {
				check(append(append(append([]float64(nil), prefix...), group...), ordinary...))
			}
		}
		for tail := 1; tail <= 3; tail++ {
			for pos := 0; pos < tail; pos++ {
				ys := append([]float64(nil), ordinary...)
				for i := 0; i < tail; i++ {
					ys = append(ys, -0.3*float64(i+1))
				}
				ys[len(ordinary)+pos] = e
				check(ys)
			}
		}
	}
}

// TestSigmoidExactEdgeLanes runs the sigmoid over edgeLanes' slices,
// at each kernel width.
func TestSigmoidExactEdgeLanes(t *testing.T) {
	eachExpWidth(func() { edgeLanes(func(ys []float64) { checkSigmoidExact(t, ys) }) })
}

// TestExpExactEdgeLanes runs exp over edgeLanes' slices, at each
// kernel width.
func TestExpExactEdgeLanes(t *testing.T) {
	eachExpWidth(func() { edgeLanes(func(xs []float64) { checkExpExact(t, xs) }) })
}

// exponentGrid sweeps [-746, 746] densely, then walks a few thousand
// consecutive float64 values across every point where an exp argument
// x changes branch: where round(x·log2e) crosses the edges of the
// kernels' one-multiply range (x near -708.76 and 709.44), math.Exp's
// subnormal-result and underflow edges (near -708.4 and -745.1), and
// its overflow edge (near 709.78). Both signs of each are walked, so
// the grid serves exp's argument x and the sigmoid's y = -x alike.
func exponentGrid() []float64 {
	var ys []float64
	for y := -746.0; y <= 746; y += 1.0 / 128 {
		ys = append(ys, y)
	}
	var edges []float64
	for _, k := range []float64{-1075, -1074, -1023, -1022, 1023, 1024} {
		edges = append(edges, (k+0.5)*math.Ln2) // round(x·log2e) steps
	}
	edges = append(edges, 1022*math.Ln2, 7.09782712893384e+02, 745.1332191019411)
	for _, c := range edges {
		for _, sign := range []float64{1, -1} {
			y := sign * c
			for i := 0; i < 1000; i++ {
				y = math.Nextafter(y, math.Inf(-1))
			}
			for i := 0; i < 2000; i++ {
				ys = append(ys, y)
				y = math.Nextafter(y, math.Inf(1))
			}
		}
	}
	return ys
}

// TestSigmoidExactGrid runs the sigmoid over exponentGrid, at each
// kernel width.
func TestSigmoidExactGrid(t *testing.T) {
	eachExpWidth(func() { checkSigmoidExact(t, exponentGrid()) })
}

// TestExpExactGrid runs exp over exponentGrid, at each kernel width.
func TestExpExactGrid(t *testing.T) {
	eachExpWidth(func() { checkExpExact(t, exponentGrid()) })
}

// randomBits holds 2^20 uniformly random float64 bit patterns (every
// exponent, both signs, NaN payloads) and 2^20 random values in
// [-750, 750].
func randomBits(seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	const n = 1 << 20
	ys := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ys[i] = math.Float64frombits(rng.Uint64())
		ys[n+i] = rng.Range(-750, 750)
	}
	return ys
}

// TestSigmoidExactRandomBits runs the sigmoid over randomBits, at each
// kernel width.
func TestSigmoidExactRandomBits(t *testing.T) {
	eachExpWidth(func() { checkSigmoidExact(t, randomBits(0x5164)) })
}

// TestExpExactRandomBits runs exp over randomBits, at each kernel
// width.
func TestExpExactRandomBits(t *testing.T) {
	eachExpWidth(func() { checkExpExact(t, randomBits(0xE8B)) })
}

// TestExactKernelVectorScalarParity compares ForwardBatch of 16-hidden-
// unit networks with the scalar reference — sumBatch's MAC loop and
// the per-element apply, layer by layer — for 0–9 rows and 1–20
// inputs. Every fourth row is scaled up so some hidden sums leave the
// vector sigmoid's range and take its scalar hand-off.
func TestExactKernelVectorScalarParity(t *testing.T) {
	eachExpWidth(func() { layerParity(t) })
}

func layerParity(t *testing.T) {
	rng := stats.NewRNG(0xE4AC7)
	s := NewScratch()
	for inputs := 1; inputs <= 20; inputs++ {
		for _, outAct := range []Activation{Linear, Sigmoid} {
			n := New(Config{
				Inputs: inputs, Hidden: []int{16}, Outputs: 2,
				HiddenAct: Sigmoid, OutputAct: outAct,
				LearningRate: 0.1, Momentum: 0.5, InitRange: 4,
				Seed: rng.Uint64(),
			})
			for rows := 0; rows <= 9; rows++ {
				xs := make([]float64, rows*inputs)
				for i := range xs {
					scale := 1.0
					if (i/inputs)%4 == 3 {
						scale = 300
					}
					xs[i] = scale * rng.Range(-1, 2)
				}
				got := n.ForwardBatch(xs, rows, s)
				for i, want := range scalarForward(n, xs, rows) {
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("inputs=%d rows=%d output act %s: output %d: kernel %g (bits %x), scalar %g (bits %x)",
							inputs, rows, outAct, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestOutputKernelVectorScalarParity compares ForwardBatch of networks
// with one output unit over 16 hidden units — the output kernel's
// shape — with the scalar reference, layer by layer, for 0–13 rows and
// 1–12 inputs. With a sigmoid hidden layer every fourth row is scaled
// up, so its hidden sums take the sigmoid's scalar hand-off and reach
// the output layer as exact 0s and 1s; with a linear hidden layer the
// scaled rows feed the output layer values up to 1e300, whose products
// and sums overflow to ±Inf and NaN.
func TestOutputKernelVectorScalarParity(t *testing.T) {
	eachExpWidth(func() { outputParity(t) })
}

func outputParity(t *testing.T) {
	rng := stats.NewRNG(0x0E7)
	s := NewScratch()
	for inputs := 1; inputs <= 12; inputs++ {
		for _, hidAct := range []Activation{Sigmoid, Linear} {
			for _, outAct := range []Activation{Linear, Sigmoid} {
				n := New(Config{
					Inputs: inputs, Hidden: []int{16}, Outputs: 1,
					HiddenAct: hidAct, OutputAct: outAct,
					LearningRate: 0.1, Momentum: 0.5, InitRange: 4,
					Seed: rng.Uint64(),
				})
				huge := 300.0
				if hidAct == Linear {
					huge = 1e300
				}
				for rows := 0; rows <= 13; rows++ {
					xs := make([]float64, rows*inputs)
					for i := range xs {
						scale := 1.0
						if (i/inputs)%4 == 3 {
							scale = huge
						}
						xs[i] = scale * rng.Range(-1, 2)
					}
					got := n.ForwardBatch(xs, rows, s)
					want := scalarForward(n, xs, rows)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("inputs=%d rows=%d hidden %s output %s: row %d: kernel %g (bits %x), scalar %g (bits %x)",
								inputs, rows, hidAct, outAct, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// scalarForward is the portable reference for ForwardBatch: sumBatch's
// MAC loop and the per-element apply, layer by layer.
func scalarForward(n *Network, xs []float64, rows int) []float64 {
	in := xs
	for _, l := range n.layers {
		out := make([]float64, rows*l.out)
		l.sumBatch(in, rows, out)
		for i, v := range out {
			out[i] = l.act.apply(v)
		}
		in = out
	}
	return in
}

// FuzzSigmoidExact decodes 4–9 little-endian float64 values and
// compares Sigmoid.applyBatch over them with the scalar expression
// 1/(1+math.Exp(-y)), bit for bit. Its seed corpus
// (testdata/fuzz/FuzzSigmoidExact) holds the edge inputs at assorted
// lanes and slice lengths.
func FuzzSigmoidExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n < 4 || n > 9 {
			return
		}
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		eachExpWidth(func() {
			got := append([]float64(nil), ys...)
			Sigmoid.applyBatch(got)
			for i, y := range ys {
				want := 1 / (1 + math.Exp(-y))
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("sigmoid(%g) (bits %x) at %d of %d, 8-lane kernel %v: applyBatch bits %x, scalar bits %x",
						y, math.Float64bits(y), i, n, exp512, math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		})
	})
}

// FuzzExpExact decodes 4–9 little-endian float64 values and compares
// ExpBatch over them with math.Exp, bit for bit. Its seed corpus
// (testdata/fuzz/FuzzExpExact) holds the edge inputs at assorted lanes
// and slice lengths.
func FuzzExpExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n < 4 || n > 9 {
			return
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		eachExpWidth(func() {
			got := append([]float64(nil), xs...)
			ExpBatch(got)
			for i, x := range xs {
				if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("exp(%g) (bits %x) at %d of %d, 8-lane kernel %v: ExpBatch bits %x, math.Exp bits %x",
						x, math.Float64bits(x), i, n, exp512, math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		})
	})
}

// TestSigmoidExactKernelLive fails when the start-up probe rejects the
// vector sigmoid on a CPU that has AVX2 and FMA: the kernel has then
// drifted from math.Exp, and the parity tests above would be comparing
// the scalar path with itself.
func TestSigmoidExactKernelLive(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG overrides CPU features")
	}
	if cpufeat.AVX2 && cpufeat.FMA && !sigmoidAsm {
		t.Fatal("the vector sigmoid disagrees with math.Exp on its probe inputs")
	}
}

// TestSigmoidExact512Live fails when a CPU with AVX-512, AVX2 and FMA
// does not run the sigmoid and exp through the 8-lane kernels: sweeps
// would then take the 4-lane ones, and the parity tests' first pass
// would not check the kernels that run.
func TestSigmoidExact512Live(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG overrides CPU features")
	}
	if !cpufeat.AVX512 || !cpufeat.AVX2 || !cpufeat.FMA {
		t.Skip("the 8-lane kernels need AVX-512, AVX2 and FMA")
	}
	if !exp512 {
		t.Fatal("an AVX-512 CPU runs the sigmoid and exp on the 4-lane kernels")
	}
	// ExpBatch hands its first len/8 groups to expAVX512 under exp512;
	// the kernel must take a group of ordinary values whole.
	xs := []float64{0.5, -1.25, 3, -7, 0.1, 2.5, -3, 40}
	ys := append([]float64(nil), xs...)
	if done := expAVX512(&ys[0], 1); done != 8 {
		t.Fatalf("expAVX512 did %d of 8 ordinary elements", done)
	}
	for i, x := range xs {
		if want := math.Exp(x); math.Float64bits(ys[i]) != math.Float64bits(want) {
			t.Fatalf("expAVX512: exp(%g) = %g (bits %x), math.Exp %g (bits %x)",
				x, ys[i], math.Float64bits(ys[i]), want, math.Float64bits(want))
		}
	}
}

// TestSigmoidExactFollowsGODEBUG reruns the parity tests in a child
// process with GODEBUG=cpu.fma=off, which (below GOAMD64=v3) sends
// math.Exp down its non-FMA branch; the vector sigmoid and exp, and
// with them the range path's fused kernel, must then stand aside
// rather than keep the FMA rounding.
func TestSigmoidExactFollowsGODEBUG(t *testing.T) {
	runWithoutFMA(t, "TestSigmoidExactEdgeLanes", "TestSigmoidExactGrid", "TestExactKernelVectorScalarParity",
		"TestExpExactEdgeLanes", "TestExpExactGrid", "TestOutputKernelVectorScalarParity",
		"TestRangeForwardParity")
}

// runWithoutFMA reruns the named tests of this package in a child
// process with GODEBUG=cpu.fma=off and fails unless each one passed.
func runWithoutFMA(t *testing.T, tests ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns a child test process")
	}
	cmd := exec.Command(os.Args[0], "-test.count=1", "-test.v", "-test.run=^("+strings.Join(tests, "|")+")$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s under GODEBUG=cpu.fma=off: %v\n%s", strings.Join(tests, ", "), err, out)
	}
	for _, name := range tests {
		if !strings.Contains(string(out), "--- PASS: "+name+" ") {
			t.Fatalf("child process did not pass %s:\n%s", name, out)
		}
	}
}
