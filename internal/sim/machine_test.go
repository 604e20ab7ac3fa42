package sim

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// testConfig returns a valid mid-range machine for simulator tests.
func testConfig() Config {
	return Config{
		FreqGHz: 4, Width: 4, MaxBranches: 16,
		IntALUs: 4, FPUs: 2, LoadPorts: 2, StorePorts: 2,
		ROBSize: 128, IntRegs: 96, FPRegs: 96, LSQLoads: 48, LSQStores: 48,
		BPredEntries: 2048, BTBSets: 2048, BTBAssoc: 2,
		L1ISizeKB: 32, L1IBlock: 32, L1IAssoc: 2,
		L1DSizeKB: 32, L1DBlock: 32, L1DAssoc: 2, L1DWrite: WriteBack,
		L2SizeKB: 1024, L2Block: 64, L2Assoc: 8,
		L2BusBytes: 32, FSBMHz: 800, SDRAMLatNS: 100,
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := workload.Get("gzip", 8000)
	a, err := Run(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical runs differ:\n%+v\n%+v", a, b)
	}
}

func TestIPCBounds(t *testing.T) {
	for _, app := range workload.Apps() {
		tr := workload.Get(app, 8000)
		r, err := Run(testConfig(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.IPC <= 0 {
			t.Errorf("%s: non-positive IPC %v", app, r.IPC)
		}
		if r.IPC > float64(testConfig().Width) {
			t.Errorf("%s: IPC %v exceeds width", app, r.IPC)
		}
		if r.Insts != 8000 {
			t.Errorf("%s: committed %d instructions", app, r.Insts)
		}
	}
}

func TestRatesAreRates(t *testing.T) {
	r, err := Run(testConfig(), workload.Get("mcf", 8000))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"L1I": r.L1IMissRate, "L1D": r.L1DMissRate, "L2": r.L2MissRate,
		"brMis": r.BrMispredRate,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s rate %v outside [0,1]", name, v)
		}
	}
	if r.AvgROBOccupied < 0 || r.AvgROBOccupied > float64(testConfig().ROBSize) {
		t.Errorf("ROB occupancy %v outside [0,%d]", r.AvgROBOccupied, testConfig().ROBSize)
	}
}

func TestWiderMachineNotSlower(t *testing.T) {
	tr := workload.Get("gzip", 12000)
	narrow := testConfig()
	narrow.Width = 2
	wide := testConfig()
	wide.Width = 8
	wide.IntALUs, wide.FPUs = 8, 4
	rn, err := Run(narrow, tr)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(wide, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rw.IPC < rn.IPC*0.98 {
		t.Fatalf("8-wide IPC %v below 2-wide IPC %v", rw.IPC, rn.IPC)
	}
}

func TestBiggerL2NotSlower(t *testing.T) {
	tr := workload.Get("mcf", 12000)
	small := testConfig()
	small.L2SizeKB = 256
	small.L2Assoc = 4
	big := testConfig()
	big.L2SizeKB = 2048
	rs, err := Run(small, tr)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(big, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rb.IPC < rs.IPC {
		t.Fatalf("2MB L2 IPC %v below 256KB IPC %v for mcf", rb.IPC, rs.IPC)
	}
	if rb.L2MissRate > rs.L2MissRate {
		t.Fatalf("2MB L2 misses more than 256KB: %v vs %v", rb.L2MissRate, rs.L2MissRate)
	}
}

func TestColdStartSlower(t *testing.T) {
	tr := workload.Get("crafty", 8000)
	warm := testConfig()
	cold := testConfig()
	cold.ColdStart = true
	rw, err := Run(warm, tr)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(cold, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rc.IPC >= rw.IPC {
		t.Fatalf("cold start (%v) not slower than warm (%v)", rc.IPC, rw.IPC)
	}
	if rc.L1DMissRate <= rw.L1DMissRate {
		t.Fatalf("cold start should raise L1D miss rate: %v vs %v", rc.L1DMissRate, rw.L1DMissRate)
	}
}

func TestWriteThroughGeneratesBusTraffic(t *testing.T) {
	tr := workload.Get("gzip", 12000)
	wb := testConfig()
	wt := testConfig()
	wt.L1DWrite = WriteThrough
	rwb, err := Run(wb, tr)
	if err != nil {
		t.Fatal(err)
	}
	rwt, err := Run(wt, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rwt.L2BusUtil <= rwb.L2BusUtil {
		t.Fatalf("write-through L2 bus utilization %v not above write-back %v",
			rwt.L2BusUtil, rwb.L2BusUtil)
	}
}

func TestFasterFSBNotSlower(t *testing.T) {
	tr := workload.Get("equake", 12000)
	slow := testConfig()
	slow.FSBMHz = 533
	slow.L2SizeKB = 256
	slow.L2Assoc = 4
	fast := slow
	fast.FSBMHz = 1400
	rs, err := Run(slow, tr)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(fast, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rf.IPC < rs.IPC {
		t.Fatalf("1.4GHz FSB IPC %v below 533MHz IPC %v", rf.IPC, rs.IPC)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := testConfig()
	cfg.ROBSize = 0
	if _, err := Run(cfg, workload.Get("gzip", 1000)); err == nil {
		t.Fatal("zero ROB accepted")
	}
	cfg = testConfig()
	cfg.L1DBlock = 48 // not a power of two
	if _, err := Run(cfg, workload.Get("gzip", 1000)); err == nil {
		t.Fatal("non-power-of-two block accepted")
	}
	cfg = testConfig()
	cfg.L2Block = 32
	cfg.L1DBlock = 64
	if _, err := Run(cfg, workload.Get("gzip", 1000)); err == nil {
		t.Fatal("L2 block smaller than L1 block accepted")
	}
	cfg = testConfig()
	cfg.IssueWindow = -1
	if _, err := Run(cfg, workload.Get("gzip", 1000)); err == nil || !strings.Contains(err.Error(), "IssueWindow") {
		t.Fatalf("negative issue window: got error %v, want one naming IssueWindow", err)
	}
	cfg = testConfig()
	cfg.L1DWrite = 7
	if _, err := Run(cfg, workload.Get("gzip", 1000)); err == nil || !strings.Contains(err.Error(), "L1DWrite") {
		t.Fatalf("unknown write policy: got error %v, want one naming L1DWrite", err)
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	if _, err := Run(testConfig(), &workload.Trace{App: "empty"}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRunWindowMatchesFullWhenWholeTrace(t *testing.T) {
	tr := workload.Get("mesa", 6000)
	full, err := Run(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	win, err := RunWindow(testConfig(), tr, 0, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	if full != win {
		t.Fatal("RunWindow over the full range differs from Run")
	}
}

func TestRunWindowSubrange(t *testing.T) {
	tr := workload.Get("mesa", 8000)
	r, err := RunWindow(testConfig(), tr, 2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts != 2000 {
		t.Fatalf("window committed %d instructions, want 2000", r.Insts)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Fatalf("window IPC %v implausible", r.IPC)
	}
}

func TestRunWindowRejectsBadRanges(t *testing.T) {
	tr := workload.Get("mesa", 4000)
	for _, c := range [][2]int{{-1, 100}, {100, 100}, {3000, 2000}, {0, 4001}} {
		if _, err := RunWindow(testConfig(), tr, c[0], c[1]); err == nil {
			t.Errorf("window [%d,%d) accepted", c[0], c[1])
		}
	}
}

func TestLowerFrequencyRaisesIPC(t *testing.T) {
	// At 2 GHz the memory system is relatively faster, so IPC rises even
	// though wall-clock performance falls — the classic frequency
	// tradeoff the processor study explores.
	tr := workload.Get("mcf", 12000)
	at4 := testConfig()
	at2 := testConfig()
	at2.FreqGHz = 2
	r4, err := Run(at4, tr)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(at2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r2.IPC <= r4.IPC {
		t.Fatalf("2GHz IPC %v not above 4GHz IPC %v for memory-bound mcf", r2.IPC, r4.IPC)
	}
}

func TestTinyTraceCompletes(t *testing.T) {
	tr := workload.Get("gzip", 16)
	r, err := Run(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts != 16 {
		t.Fatalf("committed %d of 16", r.Insts)
	}
}

func TestLatenciesAccessor(t *testing.T) {
	l1i, l1d, l2, dram, redirect, err := testConfig().Latencies()
	if err != nil {
		t.Fatal(err)
	}
	if l1i < 1 || l1d < 1 || l2 <= l1d || dram <= l2 {
		t.Fatalf("latency ordering broken: %d %d %d %d", l1i, l1d, l2, dram)
	}
	if redirect != 20 {
		t.Fatalf("4GHz redirect penalty %d, want 20 (paper)", redirect)
	}
	cfg2 := testConfig()
	cfg2.FreqGHz = 2
	_, _, _, _, redirect2, _ := cfg2.Latencies()
	if redirect2 != 11 {
		t.Fatalf("2GHz redirect penalty %d, want 11 (paper)", redirect2)
	}
}

func TestWritePolicyString(t *testing.T) {
	if WriteBack.String() != "WB" || WriteThrough.String() != "WT" {
		t.Fatal("write-policy names wrong")
	}
}
