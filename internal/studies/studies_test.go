package studies

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestSpaceSizesMatchPaper(t *testing.T) {
	if got := MemorySystem().Space.Size(); got != 23040 {
		t.Fatalf("memory-system space = %d points, paper says 23,040", got)
	}
	if got := Processor().Space.Size(); got != 20736 {
		t.Fatalf("processor space = %d points, paper says 20,736", got)
	}
}

func TestTotalSimulationCounts(t *testing.T) {
	// Paper: 184,320 and 165,888 simulations over eight benchmarks.
	if got := MemorySystem().Space.Size() * 8; got != 184320 {
		t.Fatalf("memory study total = %d", got)
	}
	if got := Processor().Space.Size() * 8; got != 165888 {
		t.Fatalf("processor study total = %d", got)
	}
}

func TestBaselineConfigValid(t *testing.T) {
	if err := BaselineConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEveryMemoryPointBuildsValidConfig(t *testing.T) {
	st := MemorySystem()
	rng := stats.NewRNG(1)
	// Exhaustive validation is cheap enough for the memory study.
	for _, idx := range append(rng.SampleWithoutReplacement(st.Space.Size(), 2000), 0, st.Space.Size()-1) {
		cfg := st.Config(idx)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("point %d invalid: %v\n%s", idx, err, st.Space.Describe(idx))
		}
	}
}

func TestEveryProcessorPointBuildsValidConfig(t *testing.T) {
	st := Processor()
	rng := stats.NewRNG(2)
	for _, idx := range append(rng.SampleWithoutReplacement(st.Space.Size(), 2000), 0, st.Space.Size()-1) {
		cfg := st.Config(idx)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("point %d invalid: %v\n%s", idx, err, st.Space.Describe(idx))
		}
	}
}

func TestMemoryStudyAxesReachConfig(t *testing.T) {
	st := MemorySystem()
	// Walk each axis from a fixed base and check the config field moves.
	base := make([]int, st.Space.NumParams())
	cfgOf := func(c []int) sim.Config { return st.Build(c) }

	base[memL1DSize] = 3
	if cfgOf(base).L1DSizeKB != 64 {
		t.Fatal("L1D size axis not wired")
	}
	base[memL1DWrite] = 0
	if cfgOf(base).L1DWrite != sim.WriteThrough {
		t.Fatal("write-policy axis not wired (WT)")
	}
	base[memL1DWrite] = 1
	if cfgOf(base).L1DWrite != sim.WriteBack {
		t.Fatal("write-policy axis not wired (WB)")
	}
	base[memL2Size] = 3
	if cfgOf(base).L2SizeKB != 2048 {
		t.Fatal("L2 size axis not wired")
	}
	base[memFSB] = 2
	if cfgOf(base).FSBMHz != 1400 {
		t.Fatalf("FSB axis not wired: %v", cfgOf(base).FSBMHz)
	}
}

func TestProcessorRegisterFileDependsOnROB(t *testing.T) {
	st := Processor()
	c := make([]int, st.Space.NumParams())
	// ROB 96 (choice 0) allows registers {64, 80}.
	c[procROB], c[procRegs] = 0, 0
	if got := st.Build(c).IntRegs; got != 64 {
		t.Fatalf("ROB 96/choice 0 → %d regs, want 64", got)
	}
	c[procRegs] = 1
	if got := st.Build(c).IntRegs; got != 80 {
		t.Fatalf("ROB 96/choice 1 → %d regs, want 80", got)
	}
	// ROB 160 (choice 2) allows {96, 112}.
	c[procROB], c[procRegs] = 2, 1
	if got := st.Build(c).IntRegs; got != 112 {
		t.Fatalf("ROB 160/choice 1 → %d regs, want 112", got)
	}
	// The paper's rule: a 96-entry ROB never pairs with 112 registers.
	for idx := 0; idx < st.Space.Size(); idx += 97 {
		cfg := st.Config(idx)
		if cfg.ROBSize == 96 && cfg.IntRegs > 80 {
			t.Fatalf("point %d pairs ROB 96 with %d regs", idx, cfg.IntRegs)
		}
		if cfg.ROBSize == 160 && cfg.IntRegs < 96 {
			t.Fatalf("point %d pairs ROB 160 with %d regs", idx, cfg.IntRegs)
		}
	}
}

func TestProcessorDependentCacheRules(t *testing.T) {
	st := Processor()
	for idx := 0; idx < st.Space.Size(); idx += 131 {
		cfg := st.Config(idx)
		if cfg.L1DSizeKB == 8 && cfg.L1DAssoc != 1 {
			t.Fatalf("8KB L1D should be direct-mapped, got %d-way", cfg.L1DAssoc)
		}
		if cfg.L1DSizeKB == 32 && cfg.L1DAssoc != 2 {
			t.Fatalf("32KB L1D should be 2-way, got %d-way", cfg.L1DAssoc)
		}
		if cfg.L2SizeKB == 256 && cfg.L2Assoc != 4 {
			t.Fatalf("256KB L2 should be 4-way, got %d-way", cfg.L2Assoc)
		}
		if cfg.L2SizeKB == 1024 && cfg.L2Assoc != 8 {
			t.Fatalf("1MB L2 should be 8-way, got %d-way", cfg.L2Assoc)
		}
		if cfg.L1DBlock != 32 || cfg.L2Block != 64 || cfg.L1DWrite != sim.WriteBack {
			t.Fatal("fixed cache geometry rules violated")
		}
	}
}

func TestProcessorFunctionalUnits(t *testing.T) {
	st := Processor()
	c := make([]int, st.Space.NumParams())
	c[procFU] = 1 // 8 FUs
	cfg := st.Build(c)
	if cfg.IntALUs != 8 || cfg.FPUs != 4 {
		t.Fatalf("8 FUs → %d ALUs / %d FPUs", cfg.IntALUs, cfg.FPUs)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"memory", "processor"} {
		st, err := ByName(name)
		if err != nil || st.Name != name {
			t.Fatalf("ByName(%s) = %v, %v", name, st, err)
		}
	}
	if _, err := ByName("cache"); err == nil {
		t.Fatal("unknown study name accepted")
	}
}

func TestAppLists(t *testing.T) {
	if len(PaperApps()) != 8 {
		t.Fatal("PaperApps should list eight benchmarks")
	}
	if len(SimPointApps()) != 4 {
		t.Fatal("SimPointApps should list four entries")
	}
}

func TestAll(t *testing.T) {
	all := All()
	if len(all) != 2 || all[0].Name != "memory" || all[1].Name != "processor" {
		t.Fatal("All() should return memory then processor")
	}
}

func TestConfigPure(t *testing.T) {
	st := Processor()
	a := st.Config(1234)
	b := st.Config(1234)
	if a != b {
		t.Fatal("Config is not a pure function of the index")
	}
}
