package mathx

import "repro/internal/cpufeat"

// lerpGatherAVX2 applies the table lerp to xs[0:n] in place, 8 lanes at
// a time; n must be a multiple of 8. Every step is the same
// single-rounded float32 operation sequence as at32 — VMULPS/VADDPS for
// the index, VMAXPS/VMINPS with the NaN-clamping operand order for the
// range clamp, VCVTTPS2DQ truncation for the cell, VPGATHERDD loads,
// and VSUBPS/VMULPS/VADDPS for the lerp — so its results are
// bit-identical to the scalar fallback (asserted by the slice/scalar
// parity tests).
//
//go:noescape
func lerpGatherAVX2(xs *float32, n int, tab *float32, invH, bias, maxU float32)

// sliceLerp32 vectorizes the leading multiple-of-8 span of xs on CPUs
// with AVX2 and reports how many elements it handled.
func sliceLerp32(t *table, xs []float32) int {
	if !cpufeat.AVX2 || len(xs) < 8 {
		return 0
	}
	m := len(xs) &^ 7
	lerpGatherAVX2(&xs[0], m, &t.v[0], t.invH, t.bias, t.maxU)
	return m
}
