// Package studies defines the two design spaces of the paper's
// evaluation — the memory-system study (Table 4.1, 23,040 points per
// benchmark) and the processor study (Table 4.2, 20,736 points per
// benchmark) — and the mapping from design points to simulator
// configurations, including the fixed parameters on the right-hand
// sides of those tables.
package studies

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/space"
)

// Study couples a design space with the function that realizes each of
// its points as a complete simulator configuration.
type Study struct {
	Name  string
	Space *space.Space
	// Build returns the simulator configuration for a choice vector of
	// Space. It must be a pure function.
	Build func(choices []int) sim.Config
}

// Config materializes the design point with the given flat index.
func (st *Study) Config(index int) sim.Config {
	return st.Build(st.Space.Choices(index))
}

// BaselineConfig returns the fixed machine of the memory-system study
// (the right-hand column of Table 4.1): a 4 GHz, 4-wide out-of-order
// core with a 128-entry ROB, 96+96 physical registers, 48/48 LSQ, a
// 32 KB 2-cycle L1I, a 21264-style tournament predictor, and a 100 ns
// SDRAM behind a 64-bit front-side bus. Memory-hierarchy parameters are
// set to the midpoints of the study ranges so the returned Config is a
// complete, valid machine on its own.
func BaselineConfig() sim.Config {
	return sim.Config{
		FreqGHz:     4,
		Width:       4,
		MaxBranches: 16,
		IntALUs:     4,
		FPUs:        2,
		LoadPorts:   2,
		StorePorts:  2,
		ROBSize:     128,
		IntRegs:     96,
		FPRegs:      96,
		LSQLoads:    48,
		LSQStores:   48,

		BPredEntries: 2048,
		BTBSets:      2048,
		BTBAssoc:     2,

		L1ISizeKB: 32, L1IBlock: 32, L1IAssoc: 2,
		L1DSizeKB: 32, L1DBlock: 32, L1DAssoc: 2,
		L1DWrite: sim.WriteBack,
		L2SizeKB: 1024, L2Block: 64, L2Assoc: 8,

		L2BusBytes: 32,
		FSBMHz:     800,
		SDRAMLatNS: 100,
	}
}

// Memory-system study axis order (Table 4.1 left).
const (
	memL1DSize = iota
	memL1DBlock
	memL1DAssoc
	memL1DWrite
	memL2Size
	memL2Block
	memL2Assoc
	memL2Bus
	memFSB
)

// MemorySystem returns the memory-system sensitivity study of
// Table 4.1: nine variable memory-hierarchy parameters over a fixed
// 4 GHz core, spanning 4·2·4·2·4·2·5·3·3 = 23,040 design points.
func MemorySystem() *Study {
	sp := space.New("memory-system", []space.Param{
		{Name: "L1D Size (KB)", Kind: space.Cardinal, Values: []float64{8, 16, 32, 64}},
		{Name: "L1D Block (B)", Kind: space.Cardinal, Values: []float64{32, 64}},
		{Name: "L1D Assoc", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "L1 Write Policy", Kind: space.Nominal, Levels: []string{"WT", "WB"}},
		{Name: "L2 Size (KB)", Kind: space.Cardinal, Values: []float64{256, 512, 1024, 2048}},
		{Name: "L2 Block (B)", Kind: space.Cardinal, Values: []float64{64, 128}},
		{Name: "L2 Assoc", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8, 16}},
		{Name: "L2 Bus (B)", Kind: space.Cardinal, Values: []float64{8, 16, 32}},
		{Name: "FSB (GHz)", Kind: space.Continuous, Values: []float64{0.533, 0.8, 1.4}},
	})
	build := func(c []int) sim.Config {
		cfg := BaselineConfig()
		cfg.L1DSizeKB = int(sp.Value(c, memL1DSize))
		cfg.L1DBlock = int(sp.Value(c, memL1DBlock))
		cfg.L1DAssoc = int(sp.Value(c, memL1DAssoc))
		if sp.LevelName(c, memL1DWrite) == "WT" {
			cfg.L1DWrite = sim.WriteThrough
		} else {
			cfg.L1DWrite = sim.WriteBack
		}
		cfg.L2SizeKB = int(sp.Value(c, memL2Size))
		cfg.L2Block = int(sp.Value(c, memL2Block))
		cfg.L2Assoc = int(sp.Value(c, memL2Assoc))
		cfg.L2BusBytes = int(sp.Value(c, memL2Bus))
		cfg.FSBMHz = sp.Value(c, memFSB) * 1000
		return cfg
	}
	return &Study{Name: "memory", Space: sp, Build: build}
}

// Processor study axis order (Table 4.2 left).
const (
	procWidth = iota
	procFreq
	procMaxBr
	procBPred
	procBTB
	procFU
	procROB
	procRegs
	procLSQ
	procL1I
	procL1D
	procL2
)

// Processor returns the processor sensitivity study of Table 4.2:
// twelve variable core parameters (with register-file choices dependent
// on ROB size, exactly as the paper constrains them) over fixed L1/L2
// geometry rules, spanning 20,736 design points.
func Processor() *Study {
	sp := space.New("processor", []space.Param{
		{Name: "Width", Kind: space.Cardinal, Values: []float64{4, 6, 8}},
		{Name: "Frequency (GHz)", Kind: space.Continuous, Values: []float64{2, 4}},
		{Name: "Max Branches", Kind: space.Cardinal, Values: []float64{16, 32}},
		{Name: "BPred Entries", Kind: space.Cardinal, Values: []float64{1024, 2048, 4096}},
		{Name: "BTB Sets", Kind: space.Cardinal, Values: []float64{1024, 2048}},
		{Name: "Functional Units", Kind: space.Cardinal, Values: []float64{4, 8}},
		{Name: "ROB Size", Kind: space.Cardinal, Values: []float64{96, 128, 160}},
		{Name: "Register File", Kind: space.Cardinal, DependsOn: "ROB Size", Table: [][]float64{
			{64, 80},  // ROB 96
			{80, 96},  // ROB 128
			{96, 112}, // ROB 160
		}},
		{Name: "LSQ Entries", Kind: space.Cardinal, Values: []float64{32, 48, 64}},
		{Name: "L1I Size (KB)", Kind: space.Cardinal, Values: []float64{8, 32}},
		{Name: "L1D Size (KB)", Kind: space.Cardinal, Values: []float64{8, 32}},
		{Name: "L2 Size (KB)", Kind: space.Cardinal, Values: []float64{256, 1024}},
	})
	build := func(c []int) sim.Config {
		cfg := BaselineConfig()
		cfg.Width = int(sp.Value(c, procWidth))
		cfg.FreqGHz = sp.Value(c, procFreq)
		cfg.MaxBranches = int(sp.Value(c, procMaxBr))
		cfg.BPredEntries = int(sp.Value(c, procBPred))
		cfg.BTBSets = int(sp.Value(c, procBTB))
		fu := int(sp.Value(c, procFU))
		cfg.IntALUs = fu
		cfg.FPUs = fu / 2
		cfg.ROBSize = int(sp.Value(c, procROB))
		regs := int(sp.Value(c, procRegs))
		cfg.IntRegs, cfg.FPRegs = regs, regs
		lsq := int(sp.Value(c, procLSQ))
		cfg.LSQLoads, cfg.LSQStores = lsq, lsq

		// Fixed-rule cache geometry (Table 4.2 right): associativity
		// follows capacity; 32 B L1 blocks, 64 B L2 blocks; write-back.
		cfg.L1ISizeKB = int(sp.Value(c, procL1I))
		cfg.L1IBlock = 32
		cfg.L1IAssoc = assocForL1(cfg.L1ISizeKB)
		cfg.L1DSizeKB = int(sp.Value(c, procL1D))
		cfg.L1DBlock = 32
		cfg.L1DAssoc = assocForL1(cfg.L1DSizeKB)
		cfg.L1DWrite = sim.WriteBack
		cfg.L2SizeKB = int(sp.Value(c, procL2))
		cfg.L2Block = 64
		cfg.L2Assoc = assocForL2(cfg.L2SizeKB)

		cfg.L2BusBytes = 32
		cfg.FSBMHz = 800
		return cfg
	}
	return &Study{Name: "processor", Space: sp, Build: build}
}

// assocForL1 implements the paper's "1,2 way (dependent on size)" rule:
// the small configuration is direct-mapped, the large one 2-way.
func assocForL1(sizeKB int) int {
	if sizeKB <= 8 {
		return 1
	}
	return 2
}

// assocForL2 implements the paper's "4,8 way (dependent on size)" rule.
func assocForL2(sizeKB int) int {
	if sizeKB <= 256 {
		return 4
	}
	return 8
}

// ByName returns the study with the given short name ("memory" or
// "processor").
func ByName(name string) (*Study, error) {
	switch name {
	case "memory":
		return MemorySystem(), nil
	case "processor":
		return Processor(), nil
	}
	return nil, fmt.Errorf("studies: unknown study %q (want \"memory\" or \"processor\")", name)
}

// All returns both studies in paper order.
func All() []*Study {
	return []*Study{MemorySystem(), Processor()}
}

// PaperApps returns the benchmark suite in the order the paper lists it
// (four CINT2000 then four CFP2000).
func PaperApps() []string {
	return []string{"gzip", "mcf", "crafty", "twolf", "mgrid", "applu", "mesa", "equake"}
}

// SimPointApps returns the four longest-running applications, used in
// the ANN+SimPoint experiments (§5.3).
func SimPointApps() []string {
	return []string{"mesa", "mcf", "crafty", "equake"}
}
