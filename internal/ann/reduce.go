package ann

import "fmt"

// AffineBatch sets ys[i] = lo + ys[i]*span, one rounding per multiply
// and per add, never fused: encoding.Scaler.Unscale over a slice when
// span is Hi-Lo. On an AVX2 CPU it runs 4 elements per register and
// the scalar loop takes the tail.
func AffineBatch(ys []float64, lo, span float64) {
	done := 0
	if reduceAsm && len(ys) >= 4 {
		done = len(ys) / 4 * 4
		affineAVX2(&ys[0], done/4, lo, span)
	}
	for i := done; i < len(ys); i++ {
		ys[i] = lo + ys[i]*span
	}
}

// Moments reduces preds, members × cnt values with member m's column at
// preds[m*cnt:(m+1)*cnt], row by row: mean[r] is the member-order sum
// of row r, from +0, divided by members, and variance[r] the
// member-order sum of its squared deviations from that mean, from +0,
// divided by members; the ensemble's PredictVariance per point. Either
// buffer may be nil to skip it; a non-nil one must hold cnt values. On
// an AVX2 CPU the rows run 4 per register, in the scalar loop's order
// with each add, subtract, multiply and divide rounded on its own,
// never fused; the scalar loop takes the tail.
func Moments(preds []float64, members int, mean, variance []float64) {
	if members < 1 || len(preds)%members != 0 {
		panic(fmt.Sprintf("ann: %d predictions are not %d member columns", len(preds), members))
	}
	cnt := len(preds) / members
	if (mean != nil && len(mean) != cnt) || (variance != nil && len(variance) != cnt) {
		panic(fmt.Sprintf("ann: mean/variance buffers have %d/%d slots for %d rows", len(mean), len(variance), cnt))
	}
	fm := float64(members)
	done := 0
	if reduceAsm && cnt >= 4 {
		done = cnt / 4 * 4
		var mp, vp *float64
		if mean != nil {
			mp = &mean[0]
		}
		if variance != nil {
			vp = &variance[0]
		}
		momentsAVX2(&preds[0], members, cnt, done/4, fm, mp, vp)
	}
	for r := done; r < cnt; r++ {
		var sum float64
		for m := 0; m < members; m++ {
			sum += preds[m*cnt+r]
		}
		mu := sum / fm
		if mean != nil {
			mean[r] = mu
		}
		if variance == nil {
			continue
		}
		var ss float64
		for m := 0; m < members; m++ {
			d := preds[m*cnt+r] - mu
			ss += d * d
		}
		variance[r] = ss / fm
	}
}
