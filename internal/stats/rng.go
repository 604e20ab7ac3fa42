// Package stats provides the small statistical toolkit shared by the
// simulator, the workload generator, and the modeling code: a fast,
// platform-stable pseudo-random number generator, summary statistics,
// and weighted (alias-method) sampling.
//
// All randomness in this repository flows through stats.RNG so that every
// experiment is reproducible bit-for-bit from its seeds, independent of
// the Go version or platform.
package stats

import "errors"

// RNG is a xoshiro256** pseudo-random number generator seeded via
// SplitMix64. It is deterministic across platforms and Go releases,
// unlike math/rand's unexported generator, which is why the repository
// does not use math/rand for anything that affects results.
//
// RNG is not safe for concurrent use; give each goroutine its own
// instance (see Split).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, following
// the initialization recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// A zero state would be degenerate; SplitMix64 cannot produce four
	// zeros from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output because it reseeds through
// SplitMix64 rather than sharing state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// State returns the generator's full internal state, so a paused
// computation (an exploration checkpoint, say) can later resume the
// exact same random sequence via Restore.
func (r *RNG) State() [4]uint64 { return r.s }

// Restore overwrites the generator's state with one previously returned
// by State. The all-zero state is degenerate (the sequence would be
// stuck at zero forever) and is rejected.
func (r *RNG) Restore(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("stats: cannot restore the degenerate all-zero RNG state")
	}
	r.s = s
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the xoshiro256** sequence.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Multiply-shift rejection-free bound; bias is negligible for the
	// n (< 2^31) used in this repository, and determinism matters more
	// than the last ulp of uniformity here.
	return int((r.Uint64() >> 33) % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a random permutation of [0, n), Fisher–Yates shuffled.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)), reusing
// the caller's buffer — the allocation-free Perm for per-epoch training
// shuffles. It draws exactly the same sequence as Perm for the same
// length.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly
// from [0, n). For k close to n it shuffles; for sparse draws it uses a
// set-based rejection loop, so it is efficient at both extremes (the
// design spaces here have n in the tens of thousands and k in the
// hundreds).
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("stats: sample larger than population")
	}
	if k > n/3 {
		p := r.Perm(n)
		return p[:k]
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
