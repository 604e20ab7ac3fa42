package core

import (
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
)

// BatchSelector draws batches from one design space, tracking which
// points remain drawable: Random is the paper's §3.3 sampling, and an
// Acquirer scores a candidate pool it draws. Both consume the selection
// RNG in a fixed order, which is what makes a run replay bit-identically
// from its seed or checkpoint. It is not safe for concurrent use;
// explore.Driver selects between rounds, on the goroutine running the
// loop.
type BatchSelector struct {
	sp       *space.Space
	enc      *encoding.Encoder
	rng      *stats.RNG
	reserved map[int]bool // simulated, excluded, or quarantined points
}

// NewBatchSelector builds a selector drawing from sp with rng. Every
// point starts drawable; callers Reserve the ones that must never be
// returned (held-out evaluation sets, already-simulated points,
// quarantined failures).
func NewBatchSelector(sp *space.Space, enc *encoding.Encoder, rng *stats.RNG) *BatchSelector {
	return &BatchSelector{sp: sp, enc: enc, rng: rng, reserved: make(map[int]bool)}
}

// Reserve permanently removes a design point from the draw pool.
func (s *BatchSelector) Reserve(idx int) { s.reserved[idx] = true }

// IsReserved reports whether idx has been reserved.
func (s *BatchSelector) IsReserved(idx int) bool { return s.reserved[idx] }

// Remaining returns the number of still-drawable design points.
func (s *BatchSelector) Remaining() int { return s.sp.Size() - len(s.reserved) }

// RNG exposes the selector's generator, so checkpointing can capture
// and restore the exact selection stream.
func (s *BatchSelector) RNG() *stats.RNG { return s.rng }

// enumFallbackDivisor decides when drawDistinct abandons rejection
// sampling for the enumeration fallback: once the worst-case accept
// probability of the rejection loop — (Remaining−k+1)/Size for the
// final draw — falls below 1/enumFallbackDivisor, the expected RNG
// draws per accept exceed the divisor and the loop is deep in
// coupon-collector territory (O(size·log size) draws to find the last
// few drawable points). One O(size) enumeration is strictly cheaper
// there, and bounded.
const enumFallbackDivisor = 16

// drawDistinct draws k distinct unreserved indices, consuming the
// selection RNG deterministically. Away from pool exhaustion it is the
// historic rejection loop — uniform draws over the whole space,
// re-drawing reserved or repeated points — and consumes the RNG
// exactly as it always has, which checkpoint resume bit-identity
// depends on. Near exhaustion (see enumFallbackDivisor) it switches to
// enumerating the drawable points in ascending order and taking a
// k-step partial Fisher–Yates shuffle: exactly k Intn draws, same
// uniform-without-replacement distribution, no unbounded tail. The
// regimes consume the RNG differently, so the switch threshold is part
// of the selection contract: a given (seed, reservation state) is
// always in exactly one regime.
func (s *BatchSelector) drawDistinct(k int) []int {
	avail := s.Remaining()
	if k > avail {
		k = avail
	}
	if k <= 0 {
		return nil
	}
	size := s.sp.Size()
	if (avail-k+1)*enumFallbackDivisor < size {
		cand := make([]int, 0, avail)
		for idx := 0; idx < size; idx++ {
			if !s.reserved[idx] {
				cand = append(cand, idx)
			}
		}
		out := make([]int, k)
		for i := 0; i < k; i++ {
			j := i + s.rng.Intn(len(cand)-i)
			cand[i], cand[j] = cand[j], cand[i]
			out[i] = cand[i]
		}
		return out
	}
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		idx := s.rng.Intn(size)
		if s.reserved[idx] || seen[idx] {
			continue
		}
		seen[idx] = true
		out = append(out, idx)
	}
	return out
}

// Random draws up to n distinct unreserved points uniformly — the
// paper's §3.3 sampling. The returned points are NOT reserved; the
// caller reserves them once their simulations are recorded (or
// quarantined), keeping selection side-effect-free until an oracle
// result actually exists.
func (s *BatchSelector) Random(n int) []int {
	return s.drawDistinct(n)
}

// drawPool draws the candidate pool every ensemble-scored selection
// strategy scores over: up to pool distinct unreserved points (pool
// <= 0 selects 20×n, clamped to the drawable count), returned with
// their encoded inputs. The draw consumes the selection RNG exactly
// like Random's, so every strategy sharing this pool replays
// bit-identically from a checkpoint.
func (s *BatchSelector) drawPool(n, pool int) ([]int, []float64) {
	if avail := s.Remaining(); n > avail {
		n = avail
	}
	if n <= 0 {
		return nil, nil
	}
	if pool <= 0 {
		pool = 20 * n
	}
	// Clamp to the points actually drawable: reserved covers simulated,
	// excluded and quarantined indices, none of which are candidates.
	if avail := s.Remaining(); pool > avail {
		pool = avail
	}
	idxs := s.drawDistinct(pool)
	width := s.enc.Width()
	xs := make([]float64, len(idxs)*width)
	for i, idx := range idxs {
		s.enc.EncodeIndex(idx, xs[i*width:(i+1)*width])
	}
	return idxs, xs
}
