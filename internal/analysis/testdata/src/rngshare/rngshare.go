// Package rngshare is the fixture for the rngshare analyzer: the
// repo's real *stats.RNG shared with goroutines with and without an
// intervening Split(). It imports repro/internal/stats and
// repro/internal/par (module export data) and the rngstub fixture
// (cross-package testdata).
package rngshare

import (
	"rngstub"

	"repro/internal/par"
	"repro/internal/stats"
)

// CapturedShared captures the parent generator directly: race + draw
// order depends on scheduling.
func CapturedShared() {
	rng := stats.NewRNG(1)
	go func() {
		_ = rng.Uint64() // want `captured by a .go. closure without an intervening \.Split`
	}()
}

// CapturedSplit captures a Split-derived child: sanctioned.
func CapturedSplit() {
	rng := stats.NewRNG(1)
	child := rng.Split()
	go func() {
		_ = child.Uint64()
	}()
}

// CapturedSplitVar covers the `var` declaration form.
func CapturedSplitVar() {
	rng := stats.NewRNG(1)
	var child = rng.Split()
	go func() {
		_ = child.Uint64()
	}()
}

// ParCaptured captures the parent generator in a par.For body, which
// runs on several goroutines.
func ParCaptured() {
	rng := stats.NewRNG(1)
	par.For(4, 0, func(int) {
		_ = rng.Uint64() // want `captured by a par\.For closure without an intervening \.Split`
	})
}

// ParSplit captures a Split-derived child in a par.For body:
// sanctioned.
func ParSplit() {
	rng := stats.NewRNG(1)
	child := rng.Split()
	par.For(4, 0, func(int) {
		_ = child.Uint64()
	})
}

// PassedShared hands the parent to a spawned call.
func PassedShared() {
	rng := stats.NewRNG(1)
	go rngstub.Work(rng) // want `passed to a goroutine without an intervening \.Split`
}

// PassedSplitCall splits at the call site: sanctioned.
func PassedSplitCall() {
	rng := stats.NewRNG(1)
	go rngstub.Work(rng.Split())
}

// PassedSplitVar passes a Split-derived child: sanctioned.
func PassedSplitVar() {
	rng := stats.NewRNG(1)
	child := rng.Split()
	go rngstub.Work(child)
}

// LocalInsideClosure declares its generator inside the goroutine:
// single-goroutine by construction.
func LocalInsideClosure() {
	go func() {
		rng := stats.NewRNG(7)
		_ = rng.Uint64()
	}()
}

// SameGoroutineUse never crosses a go statement.
func SameGoroutineUse() uint64 {
	rng := stats.NewRNG(1)
	return rng.Uint64()
}

// Allowed is suppressed with a reasoned directive.
func Allowed() {
	rng := stats.NewRNG(1)
	go func() {
		//repolint:allow rngshare -- fixture: goroutine proven mutually exclusive with parent
		_ = rng.Uint64()
	}()
}
