package encoding

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/space"
	"repro/internal/studies"
)

func demoSpace() *space.Space {
	return space.New("enc-demo", []space.Param{
		{Name: "Size", Kind: space.Cardinal, Values: []float64{8, 16, 64}},
		{Name: "Policy", Kind: space.Nominal, Levels: []string{"WT", "WB", "WC"}},
		{Name: "On", Kind: space.Boolean, Values: []float64{0, 1}},
	})
}

func TestWidth(t *testing.T) {
	e := NewEncoder(demoSpace())
	// 1 (cardinal) + 3 (one-hot) + 1 (boolean) = 5.
	if e.Width() != 5 {
		t.Fatalf("width = %d, want 5", e.Width())
	}
}

func TestCardinalMinimax(t *testing.T) {
	sp := demoSpace()
	e := NewEncoder(sp)
	for choice, want := range map[int]float64{0: 0, 1: (16.0 - 8) / (64 - 8), 2: 1} {
		x := e.Encode([]int{choice, 0, 0}, nil)
		if math.Abs(x[0]-want) > 1e-12 {
			t.Errorf("choice %d encoded to %v, want %v", choice, x[0], want)
		}
	}
}

func TestOneHot(t *testing.T) {
	sp := demoSpace()
	e := NewEncoder(sp)
	for lvl := 0; lvl < 3; lvl++ {
		x := e.Encode([]int{0, lvl, 0}, nil)
		ones := 0
		for i := 1; i <= 3; i++ {
			if x[i] == 1 {
				ones++
				if i-1 != lvl {
					t.Fatalf("one-hot bit %d set for level %d", i-1, lvl)
				}
			} else if x[i] != 0 {
				t.Fatalf("one-hot input not 0/1: %v", x[i])
			}
		}
		if ones != 1 {
			t.Fatalf("level %d set %d one-hot bits", lvl, ones)
		}
	}
}

func TestBoolean(t *testing.T) {
	e := NewEncoder(demoSpace())
	if e.Encode([]int{0, 0, 1}, nil)[4] != 1 {
		t.Fatal("boolean on not encoded as 1")
	}
	if e.Encode([]int{0, 0, 0}, nil)[4] != 0 {
		t.Fatal("boolean off not encoded as 0")
	}
}

func TestEncodeReusesDst(t *testing.T) {
	e := NewEncoder(demoSpace())
	dst := make([]float64, e.Width())
	out := e.Encode([]int{1, 1, 1}, dst)
	if &out[0] != &dst[0] {
		t.Fatal("Encode allocated despite provided dst")
	}
	// Previous contents must be fully overwritten.
	e.Encode([]int{0, 0, 0}, dst)
	if dst[2] != 0 || dst[4] != 0 {
		t.Fatal("Encode left stale values in dst")
	}
}

func TestEncodePanicsOnWrongWidth(t *testing.T) {
	e := NewEncoder(demoSpace())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width dst did not panic")
		}
	}()
	e.Encode([]int{0, 0, 0}, make([]float64, 2))
}

func TestEncodeIndexConsistent(t *testing.T) {
	sp := demoSpace()
	e := NewEncoder(sp)
	for i := 0; i < sp.Size(); i++ {
		a := e.EncodeIndex(i, nil)
		b := e.Encode(sp.Choices(i), nil)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("EncodeIndex(%d) differs from Encode(Choices)", i)
			}
		}
	}
}

func TestAllInputsInUnitRange(t *testing.T) {
	sp := demoSpace()
	e := NewEncoder(sp)
	for i := 0; i < sp.Size(); i++ {
		for j, v := range e.EncodeIndex(i, nil) {
			if v < 0 || v > 1 {
				t.Fatalf("point %d input %d = %v outside [0,1]", i, j, v)
			}
		}
	}
}

func TestScalerRoundTrip(t *testing.T) {
	check := func(loRaw, spanRaw, vRaw float64) bool {
		// Keep magnitudes in a physically meaningful range; the scaler
		// is for metrics like IPC, not astronomical floats.
		lo := math.Mod(loRaw, 1e6)
		span := math.Mod(math.Abs(spanRaw), 1e6) + 0.1
		if math.IsNaN(lo) || math.IsNaN(span) {
			return true
		}
		s := Scaler{Lo: lo, Hi: lo + span}
		v := lo + math.Mod(math.Abs(vRaw), span)
		if math.IsNaN(v) {
			return true
		}
		return math.Abs(s.Unscale(s.Scale(v))-v) < 1e-9*(1+math.Abs(v))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitScalerPadding(t *testing.T) {
	s := FitScaler([]float64{1, 2, 3}, 0.1)
	if s.Lo >= 1 || s.Hi <= 3 {
		t.Fatalf("padding not applied: [%v,%v]", s.Lo, s.Hi)
	}
	if math.Abs(s.Lo-0.8) > 1e-12 || math.Abs(s.Hi-3.2) > 1e-12 {
		t.Fatalf("pad 0.1 on span 2: [%v,%v], want [0.8,3.2]", s.Lo, s.Hi)
	}
}

func TestFitScalerDegenerate(t *testing.T) {
	s := FitScaler([]float64{5, 5, 5}, 0.05)
	if s.Scale(5) < 0 || s.Scale(5) > 1 {
		t.Fatalf("degenerate scaler maps 5 to %v", s.Scale(5))
	}
	s = FitScaler(nil, 0.05)
	if s.Scale(0.5) != 0.5 {
		t.Fatalf("empty-fit scaler not identity-ish: %v", s.Scale(0.5))
	}
}

func TestScalerDegenerateRange(t *testing.T) {
	s := Scaler{Lo: 2, Hi: 2}
	if s.Scale(2) != 0.5 {
		t.Fatalf("zero-span scale = %v, want 0.5", s.Scale(2))
	}
}

func TestSpecRoundTripAndMatch(t *testing.T) {
	sp := demoSpace()
	e := NewEncoder(sp)
	spec := e.Spec()
	if spec.Width != e.Width() {
		t.Fatalf("spec width %d, want %d", spec.Width, e.Width())
	}
	if err := e.Matches(spec); err != nil {
		t.Fatalf("encoder rejects its own spec: %v", err)
	}
	// A spec from a different space must be rejected on every axis of
	// disagreement: width, ranges, offsets, parameter count.
	other := NewEncoder(space.New("other", []space.Param{
		{Name: "Size", Kind: space.Cardinal, Values: []float64{8, 16, 128}},
		{Name: "Policy", Kind: space.Nominal, Levels: []string{"WT", "WB", "WC"}},
		{Name: "On", Kind: space.Boolean, Values: []float64{0, 1}},
	})).Spec()
	if err := e.Matches(other); err == nil {
		t.Fatal("encoder accepted a spec with a different normalization range")
	}
	short := spec
	short.Lo = short.Lo[:1]
	if err := e.Matches(short); err == nil {
		t.Fatal("encoder accepted a truncated spec")
	}
	wrongWidth := spec
	wrongWidth.Width++
	if err := e.Matches(wrongWidth); err == nil {
		t.Fatal("encoder accepted a wrong-width spec")
	}
	wrongOff := e.Spec()
	wrongOff.Off[1]++
	if err := e.Matches(wrongOff); err == nil {
		t.Fatal("encoder accepted a shifted input offset")
	}
}

// TestEncodeRangeMatchesEncodeIndex pins the chunked sweep encoding to
// the per-index path, bit for bit, over every alignment.
func TestEncodeRangeMatchesEncodeIndex(t *testing.T) {
	sp := demoSpace()
	e := NewEncoder(sp)
	for _, chunk := range []int{1, 3, 5, sp.Size()} {
		for start := 0; start < sp.Size(); start += chunk {
			rows := chunk
			if start+rows > sp.Size() {
				rows = sp.Size() - start
			}
			got := e.EncodeRange(start, rows, nil)
			for r := 0; r < rows; r++ {
				want := e.EncodeIndex(start+r, nil)
				for j := range want {
					if got[r*e.Width()+j] != want[j] {
						t.Fatalf("chunk %d@%d row %d input %d: %v != %v",
							chunk, start, r, j, got[r*e.Width()+j], want[j])
					}
				}
			}
		}
	}
}

// TestEncodeRangeMatchesFormula compares EncodeRange over both
// studies' whole spaces (23,040 × 10 and 20,736 × 12 inputs, the
// processor study's dependent Register File axis included) with a
// direct transcription of the §3.3 encoding, bit for bit: one-hot
// nominal levels, boolean values as they are, and every other value
// (v−lo)/(hi−lo) over the space's range, computed per point from
// Space.Value and Space.ValueRange rather than read from the encoder's
// tables.
func TestEncodeRangeMatchesFormula(t *testing.T) {
	for _, st := range studies.All() {
		sp := st.Space
		e := NewEncoder(sp)
		got := e.EncodeRange(0, sp.Size(), nil)
		want := make([]float64, e.Width())
		for idx := 0; idx < sp.Size(); idx++ {
			c := sp.Choices(idx)
			clear(want)
			at := 0
			for i := range sp.Params {
				switch p := &sp.Params[i]; p.Kind {
				case space.Nominal:
					want[at+c[i]] = 1
					at += p.Card()
					continue
				case space.Boolean:
					want[at] = sp.Value(c, i)
				default:
					lo, hi := sp.ValueRange(i)
					if hi > lo {
						want[at] = (sp.Value(c, i) - lo) / (hi - lo)
					} else {
						want[at] = 0.5
					}
				}
				at++
			}
			row := got[idx*e.Width() : (idx+1)*e.Width()]
			for j, w := range want {
				if math.Float64bits(row[j]) != math.Float64bits(w) {
					t.Fatalf("%s point %d input %d: EncodeRange %v (bits %x), formula %v (bits %x)",
						st.Name, idx, j, row[j], math.Float64bits(row[j]), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestEncodeRangeBadDestination rejects mis-sized buffers.
func TestEncodeRangeBadDestination(t *testing.T) {
	e := NewEncoder(demoSpace())
	defer func() {
		if recover() == nil {
			t.Fatal("short destination accepted")
		}
	}()
	e.EncodeRange(0, 2, make([]float64, 1))
}
