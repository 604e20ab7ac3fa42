// Package sim implements the cycle-level out-of-order processor and
// memory-hierarchy simulator that serves as this repository's substrate
// for the paper's SESC-based infrastructure. It models, cycle by cycle:
//
//   - a fetch engine limited by fetch width, taken branches, I-cache
//     misses, and branch mispredictions (21264-style tournament
//     predictor plus a set-associative BTB);
//   - an out-of-order core with a reorder buffer, issue window, integer
//     and floating-point physical register files, a load/store queue
//     with store-to-load forwarding, and per-class functional units;
//   - a two-level cache hierarchy (split L1I/L1D, unified L2) with
//     configurable size, block size, associativity and L1 write policy,
//     LRU replacement, and dirty writebacks;
//   - an L2 bus clocked at core frequency and a 64-bit front-side bus,
//     both modeled as contended resources with occupancy, in front of a
//     fixed-latency SDRAM.
//
// Latency and contention are modeled at every level, as the paper
// requires of its simulator; the machine is completely deterministic
// for a given (Config, Trace) pair.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cacti"
)

// WritePolicy selects the L1 data cache write policy.
type WritePolicy uint8

// Write policies studied in the memory-system design space (Table 4.1).
const (
	WriteBack    WritePolicy = iota // allocate on write miss, write dirty victims back
	WriteThrough                    // no-allocate, every store propagates to L2
)

// String returns the table abbreviation used in the paper ("WB"/"WT").
func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "WT"
	}
	return "WB"
}

// Config is the complete architectural configuration of one simulation,
// covering every variable and fixed parameter of Tables 4.1 and 4.2.
type Config struct {
	// Core.
	FreqGHz     float64 // core clock (2 or 4 in the processor study)
	Width       int     // fetch = issue = commit width
	MaxBranches int     // maximum in-flight branches
	IntALUs     int     // integer ALUs ("functional units" N)
	FPUs        int     // floating-point units (N/2 in the studies)
	LoadPorts   int     // load units
	StorePorts  int     // store units
	ROBSize     int     // reorder-buffer entries
	IntRegs     int     // integer physical registers
	FPRegs      int     // floating-point physical registers
	LSQLoads    int     // load-queue entries
	LSQStores   int     // store-queue entries

	// Branch prediction.
	BPredEntries int // tournament predictor scale (1K/2K/4K local entries)
	BTBSets      int // BTB sets
	BTBAssoc     int // BTB ways

	// L1 instruction cache.
	L1ISizeKB, L1IBlock, L1IAssoc int

	// L1 data cache.
	L1DSizeKB, L1DBlock, L1DAssoc int
	L1DWrite                      WritePolicy

	// Unified L2.
	L2SizeKB, L2Block, L2Assoc int

	// Interconnect and memory.
	L2BusBytes  int     // L2 bus width in bytes, clocked at core frequency
	FSBMHz      float64 // front-side bus clock; the bus is 64 bits wide
	SDRAMLatNS  float64 // SDRAM access latency
	IssueWindow int     // issue-queue capacity; 0 selects the default (64)

	// ColdStart disables the functional warmup pass that primes the
	// caches, branch predictor and BTB before the timed simulation.
	// The default (false) measures steady-state behaviour, which is
	// what design-space studies compare; cold-start numbers are only
	// interesting for warmup-effect experiments.
	ColdStart bool
}

// Validate checks that every parameter is populated and structurally
// consistent (power-of-two geometries, block sizes that fit, and so on).
func (c Config) Validate() error {
	var errs []error
	pos := func(name string, v float64) {
		if v <= 0 {
			errs = append(errs, fmt.Errorf("sim: %s must be positive, got %v", name, v))
		}
	}
	pos("FreqGHz", c.FreqGHz)
	pos("Width", float64(c.Width))
	pos("MaxBranches", float64(c.MaxBranches))
	pos("IntALUs", float64(c.IntALUs))
	pos("FPUs", float64(c.FPUs))
	pos("LoadPorts", float64(c.LoadPorts))
	pos("StorePorts", float64(c.StorePorts))
	pos("ROBSize", float64(c.ROBSize))
	pos("IntRegs", float64(c.IntRegs))
	pos("FPRegs", float64(c.FPRegs))
	pos("LSQLoads", float64(c.LSQLoads))
	pos("LSQStores", float64(c.LSQStores))
	pos("BPredEntries", float64(c.BPredEntries))
	pos("BTBSets", float64(c.BTBSets))
	pos("BTBAssoc", float64(c.BTBAssoc))
	pos("L2BusBytes", float64(c.L2BusBytes))
	pos("FSBMHz", c.FSBMHz)
	pos("SDRAMLatNS", c.SDRAMLatNS)
	if c.IssueWindow < 0 {
		errs = append(errs, fmt.Errorf("sim: IssueWindow must be non-negative (0 selects the default), got %d", c.IssueWindow))
	}
	if c.L1DWrite != WriteBack && c.L1DWrite != WriteThrough {
		errs = append(errs, fmt.Errorf("sim: L1DWrite must be WriteBack (%d) or WriteThrough (%d), got %d", WriteBack, WriteThrough, c.L1DWrite))
	}
	for _, cc := range []struct {
		name              string
		size, block, ways int
	}{
		{"L1I", c.L1ISizeKB, c.L1IBlock, c.L1IAssoc},
		{"L1D", c.L1DSizeKB, c.L1DBlock, c.L1DAssoc},
		{"L2", c.L2SizeKB, c.L2Block, c.L2Assoc},
	} {
		if cc.size <= 0 || cc.block <= 0 || cc.ways <= 0 {
			errs = append(errs, fmt.Errorf("sim: %s cache has non-positive geometry", cc.name))
			continue
		}
		bytes := cc.size * 1024
		if bytes%(cc.block*cc.ways) != 0 {
			errs = append(errs, fmt.Errorf("sim: %s cache %dKB/%dB/%d-way does not divide into whole sets",
				cc.name, cc.size, cc.block, cc.ways))
		}
		if !isPow2(cc.block) || !isPow2(bytes/(cc.block*cc.ways)) {
			errs = append(errs, fmt.Errorf("sim: %s cache geometry must be power-of-two", cc.name))
		}
	}
	if c.L2Block < c.L1DBlock || c.L2Block < c.L1IBlock {
		errs = append(errs, errors.New("sim: L2 block must be at least as large as L1 blocks"))
	}
	return errors.Join(errs...)
}

// derived holds the pre-computed cycle-domain latencies and transfer
// costs implied by a Config. Everything downstream of Config works in
// core cycles.
type derived struct {
	cfg Config

	l1iLat, l1dLat, l2Lat uint64 // access latencies in core cycles
	dramLat               uint64 // SDRAM latency in core cycles
	redirect              uint64 // front-end refill after a branch redirect

	l1iBlockShift, l1dBlockShift, l2BlockShift uint

	l2BusD   uint64 // core cycles the L2 bus is busy moving one L1D block
	l2BusI   uint64 // ... one L1I block
	l2BusW   uint64 // ... one store-through write (8 bytes)
	fsbBlock uint64 // core cycles the FSB is busy moving one L2 block
	fsbWord  uint64 // core cycles the FSB is busy moving one 8-byte write

	iqCap int
}

// minRedirectPenalty returns the minimum branch-misprediction penalty
// the paper assigns to each studied clock: 11 cycles at 2 GHz and 20 at
// 4 GHz; other frequencies interpolate linearly on pipeline depth.
func minRedirectPenalty(freqGHz float64) uint64 {
	p := math.Round(11 + (freqGHz-2)*(20-11)/2)
	if p < 2 {
		p = 2
	}
	return uint64(p)
}

// derive computes all cycle-domain constants. Cache latencies come from
// the CACTI-style model at the configured clock, as in the paper.
func (c Config) derive() (derived, error) {
	if err := c.Validate(); err != nil {
		return derived{}, err
	}
	freqHz := c.FreqGHz * 1e9
	d := derived{cfg: c}
	d.l1iLat = uint64(cacti.Cycles(cacti.Params{SizeBytes: c.L1ISizeKB * 1024, BlockBytes: c.L1IBlock, Assoc: c.L1IAssoc}, freqHz))
	d.l1dLat = uint64(cacti.Cycles(cacti.Params{SizeBytes: c.L1DSizeKB * 1024, BlockBytes: c.L1DBlock, Assoc: c.L1DAssoc}, freqHz))
	d.l2Lat = uint64(cacti.Cycles(cacti.Params{SizeBytes: c.L2SizeKB * 1024, BlockBytes: c.L2Block, Assoc: c.L2Assoc}, freqHz))
	d.dramLat = uint64(math.Ceil(c.SDRAMLatNS * c.FreqGHz))
	d.redirect = minRedirectPenalty(c.FreqGHz)

	d.l1iBlockShift = log2(c.L1IBlock)
	d.l1dBlockShift = log2(c.L1DBlock)
	d.l2BlockShift = log2(c.L2Block)

	d.l2BusD = ceilDiv(uint64(c.L1DBlock), uint64(c.L2BusBytes))
	d.l2BusI = ceilDiv(uint64(c.L1IBlock), uint64(c.L2BusBytes))
	d.l2BusW = ceilDiv(8, uint64(c.L2BusBytes))

	// FSB: 64 bits wide at FSBMHz. Time on the bus in nanoseconds,
	// converted to core cycles (rounded up — the bus cannot release
	// mid-core-cycle).
	fsbNSPerBeat := 1e3 / c.FSBMHz // ns per 8-byte beat
	blockBeats := float64(c.L2Block) / 8
	d.fsbBlock = uint64(math.Ceil(blockBeats * fsbNSPerBeat * c.FreqGHz))
	d.fsbWord = uint64(math.Ceil(fsbNSPerBeat * c.FreqGHz))

	d.iqCap = c.IssueWindow
	if d.iqCap == 0 {
		d.iqCap = 64
	}
	return d, nil
}

// Latencies reports the derived cache/memory latencies in core cycles;
// exposed so tools can print the timing a configuration implies.
func (c Config) Latencies() (l1i, l1d, l2, dram, redirect uint64, err error) {
	d, err := c.derive()
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	return d.l1iLat, d.l1dLat, d.l2Lat, d.dramLat, d.redirect, nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

func ceilDiv(a, b uint64) uint64 {
	if b == 0 {
		panic("sim: division by zero bus width")
	}
	return (a + b - 1) / b
}
