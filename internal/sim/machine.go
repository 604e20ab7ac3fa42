package sim

import (
	"fmt"

	"repro/internal/workload"
)

// Result holds the metrics of one simulation. IPC is the paper's target
// metric; the remaining rates support the multi-task-learning extension
// (Chapter 7), which predicts several correlated statistics jointly.
type Result struct {
	App    string
	Insts  uint64
	Cycles uint64
	IPC    float64

	L1IMissRate    float64 // misses / accesses
	L1DMissRate    float64
	L2MissRate     float64
	BrMispredRate  float64 // direction or target wrong / branches
	L2BusUtil      float64 // busy cycles / total cycles
	FSBUtil        float64
	AvgROBOccupied float64
}

// Execution latencies in cycles per operation class. Multi-cycle units
// are pipelined except the FP divider, which is reserved until it
// drains (as in the 21264).
const (
	latIntALU = 1
	latIntMul = 7
	latFPALU  = 4
	latFPMul  = 4
	latFPDiv  = 16
	latBranch = 1
	latAGU    = 1 // address generation before the cache access
	latFwd    = 2 // store-to-load forwarding
)

const notDone = ^uint64(0)

// robEntry is the state of one in-flight instruction. Instruction i of
// the window occupies ring slot i&mask; live instructions never collide
// because the ring is the ROB size rounded up to a power of two.
type robEntry struct {
	doneAt  uint64 // cycle the result is available; notDone until issued
	waiters int32  // newest instruction waiting for this result, -1 if none
	next    int32  // next instruction waiting for the same producer as this one
}

// wakeup is an instruction whose producers have all issued; it can
// issue from cycle at on.
type wakeup struct {
	at  uint64
	idx int32
}

// pendingStore tracks a dispatched, not-yet-committed store for
// store-to-load forwarding.
type pendingStore struct {
	idx  int32
	addr uint64
}

type machine struct {
	d     *derived
	trace *workload.Trace
	mem   memSys
	bp    tournament
	btb   btb

	ring   []robEntry
	mask   int32
	head   int32 // oldest in-flight instruction (the count committed)
	robLen int

	// Issue window. An instruction waits on the consumer list of a
	// producer that has not issued yet, then in waking until its
	// operands arrive, then in ready until a functional unit takes it.
	iqLen    int      // dispatched, not yet issued
	waking   []wakeup // unordered
	nextWake uint64   // earliest at in waking; notDone when empty
	ready    []int32  // operands available, program order

	intFree, fpFree     int
	lsqLoadFree         int
	lsqStoreFree        int
	brFree              int
	stores              []pendingStore // FIFO of in-flight stores
	fpDivFreeAt         uint64
	fetchIdx            int
	fetchStallUntil     uint64
	fetchBlockedOnBr    bool  // a mispredicted branch owns the front end
	pendingRedirect     int32 // trace index of that branch
	lastICLine          uint64
	icPrimed            bool
	branches            uint64
	brMispredicts       uint64
	robOccupancySamples uint64
	robOccupancySum     uint64
	cycle               uint64

	progressed bool // any state change in the current cycle
}

// nextEvent returns the first cycle after a cycle without progress at
// which machine state can change, so run can skip the idle stretch
// (e.g. a DRAM-bound ROB stall) exactly. Commits and issues free every
// other resource and both count as progress, so only four clocks can
// end the stall: an operand arriving for a woken instruction, the ROB
// head completing, the front end restarting, and the FP divider
// draining. notDone means none is pending.
func (m *machine) nextEvent() uint64 {
	next := m.nextWake
	if m.robLen > 0 {
		next = min(next, m.ring[m.head&m.mask].doneAt)
	}
	if m.fetchStallUntil > m.cycle {
		next = min(next, m.fetchStallUntil)
	}
	if m.fpDivFreeAt > m.cycle {
		next = min(next, m.fpDivFreeAt)
	}
	return next
}

// Run simulates tr on the architecture described by cfg and returns the
// resulting metrics. It is deterministic: identical inputs always yield
// the identical Result. The error is non-nil only for invalid
// configurations or a watchdog-detected scheduling bug.
func Run(cfg Config, tr *workload.Trace) (Result, error) {
	return RunWindow(cfg, tr, 0, tr.Len())
}

// RunWindow simulates only the window [lo, hi) of tr in detail, with
// the machine's caches and predictors functionally warmed first by the
// full trace (steady-state priming, as Run does) and then by the
// prefix [0, lo) — so the detailed window starts from the same
// microarchitectural state it would have reached inside a full run.
// This is SimPoint-style functional warming: only hi-lo instructions
// are simulated cycle by cycle.
func RunWindow(cfg Config, tr *workload.Trace, lo, hi int) (Result, error) {
	d, err := cfg.derive()
	if err != nil {
		return Result{}, err
	}
	if tr.Len() == 0 {
		return Result{}, fmt.Errorf("sim: empty trace for app %q", tr.App)
	}
	if lo < 0 || hi > tr.Len() || lo >= hi {
		return Result{}, fmt.Errorf("sim: invalid window [%d,%d) of %d", lo, hi, tr.Len())
	}
	window := tr.Slice(lo, hi)
	m := newMachine(&d, cfg, window)
	if !cfg.ColdStart {
		m.warmRange(tr, 0, tr.Len())
		m.warmRange(tr, 0, lo)
		m.mem.l1i.resetStats()
		m.mem.l1d.resetStats()
		m.mem.l2.resetStats()
		m.bp.resetStats()
	}
	if err := m.run(); err != nil {
		return Result{}, err
	}
	return m.result(), nil
}

func newMachine(d *derived, cfg Config, tr *workload.Trace) *machine {
	ring := 1
	for ring < cfg.ROBSize {
		ring <<= 1
	}
	window := min(d.iqCap, cfg.ROBSize) // every waiting instruction is in the ROB
	return &machine{
		d:            d,
		trace:        tr,
		mem:          newMemSys(d),
		bp:           newTournament(cfg.BPredEntries),
		btb:          newBTB(cfg.BTBSets, cfg.BTBAssoc),
		ring:         make([]robEntry, ring),
		mask:         int32(ring - 1),
		nextWake:     notDone,
		waking:       make([]wakeup, 0, window),
		ready:        make([]int32, 0, window),
		intFree:      cfg.IntRegs,
		fpFree:       cfg.FPRegs,
		lsqLoadFree:  cfg.LSQLoads,
		lsqStoreFree: cfg.LSQStores,
		brFree:       cfg.MaxBranches,
		stores:       make([]pendingStore, 0, cfg.LSQStores),
	}
}

func (m *machine) run() error {
	n := m.trace.Len()
	// Watchdog: even a fully serialized DRAM-bound machine finishes in
	// well under ~2500 cycles per instruction.
	limit := uint64(n)*2500 + 1_000_000
	for m.fetchIdx < n || m.robLen > 0 {
		m.progressed = false
		m.commit()
		m.issue()
		m.fetch()
		m.robOccupancySum += uint64(m.robLen)
		m.robOccupancySamples++
		if !m.progressed {
			// Nothing changed this cycle, so nothing can change until
			// the next event; jump straight to it.
			if next := m.nextEvent(); next != notDone && next > m.cycle+1 {
				skipped := next - m.cycle - 1
				m.robOccupancySum += skipped * uint64(m.robLen)
				m.robOccupancySamples += skipped
				m.cycle = next - 1
			}
		}
		m.cycle++
		if m.cycle > limit {
			return fmt.Errorf("sim: watchdog expired at cycle %d (fetched %d/%d, rob %d) — scheduling bug",
				m.cycle, m.fetchIdx, n, m.robLen)
		}
	}
	return nil
}

// warmRange performs one functional pass over [lo, hi) of tr, priming cache tags
// at both levels, the branch predictor and the BTB, then clears the
// statistics those structures accumulated. The timed simulation that
// follows therefore measures steady-state behaviour, which is what a
// design-space study compares across configurations; without this,
// short traces would be dominated by compulsory misses that no studied
// parameter can affect. The L2 warm stream is L1-filtered, mirroring
// the traffic it would see live.
//
// A consequence of warming with a trace whose realized data footprint
// is a few hundred kilobytes (the physical limit of a short trace) is
// that L2 capacities well above that footprint behave as "infinite":
// capacity misses vanish and only the CACTI latency penalty of the
// larger array remains. Smaller L2 settings — which include the entire
// L2 axis of the processor study — retain genuine capacity behaviour.
// See docs/ARCHITECTURE.md, "Simulator core".
func (m *machine) warmRange(tr *workload.Trace, lo, hi int) {
	var lastLine uint64
	primed := false
	for i := lo; i < hi; i++ {
		in := &tr.Insts[i]
		line := in.PC >> m.d.l1iBlockShift
		if !primed || line != lastLine {
			if hit, _, _ := m.mem.l1i.access(in.PC, false); !hit {
				m.mem.l2.access(in.PC, false)
			}
			lastLine = line
			primed = true
		}
		switch in.Class {
		case workload.Load:
			if hit, _, _ := m.mem.l1d.access(in.Addr, false); !hit {
				m.mem.l2.access(in.Addr, false)
			}
		case workload.Store:
			if m.d.cfg.L1DWrite == WriteBack {
				if hit, _, _ := m.mem.l1d.access(in.Addr, true); !hit {
					m.mem.l2.access(in.Addr, false)
				}
			} else {
				if m.mem.l1d.probe(in.Addr) {
					m.mem.l1d.access(in.Addr, false)
				}
				if m.mem.l2.probe(in.Addr) {
					m.mem.l2.touchWrite(in.Addr)
				}
			}
		case workload.Branch:
			m.bp.update(in.PC, in.Taken)
			if in.Taken {
				m.btb.update(in.PC, in.Target)
			}
		}
	}
}

// commit retires up to Width completed instructions from the ROB head,
// in program order, performing the memory side of stores and releasing
// their resources.
func (m *machine) commit() {
	cfg := &m.d.cfg
	for retired := 0; retired < cfg.Width && m.robLen > 0; retired++ {
		idx := m.head
		if m.ring[idx&m.mask].doneAt > m.cycle { // notDone included
			return
		}
		m.progressed = true
		in := &m.trace.Insts[idx]
		switch in.Class {
		case workload.Store:
			m.mem.store(in.Addr, m.cycle)
			m.lsqStoreFree++
			// Program-order commit means the oldest pending store is
			// exactly this one.
			m.stores = m.stores[1:]
			if len(m.stores) == 0 {
				// Reset the backing array so the FIFO slice does not
				// creep through memory over a long run.
				m.stores = m.stores[:0:cap(m.stores)]
			}
		case workload.Load:
			m.lsqLoadFree++
			m.intFree++
		case workload.Branch:
			m.brFree++
		default:
			if in.Class.IsFP() {
				m.fpFree++
			} else {
				m.intFree++
			}
		}
		m.head++
		m.robLen--
	}
}

// issue selects up to Width ready instructions from the issue window
// (oldest first), binds functional units, and schedules completion
// times. Loads consult the store queue for forwarding and otherwise
// access the memory hierarchy.
//
// Only the ready list is walked. An instruction joins it once every
// producer has issued and the latest of their results is available;
// until then it has no claim on a functional unit, which is why
// skipping it changes nothing. The list is exact for the whole pass:
// every latency is at least one cycle, so an instruction issued here
// can never make a consumer ready in this same cycle.
func (m *machine) issue() {
	if m.cycle >= m.nextWake {
		m.wakeDue()
	}
	cfg := &m.d.cfg
	issued := 0
	aluUsed, fpUsed, loadUsed, storeUsed := 0, 0, 0, 0
	r := m.ready[:0] // compact the survivors in place, preserving order
	for qi, idx := range m.ready {
		if issued >= cfg.Width {
			r = append(r, m.ready[qi:]...)
			break
		}
		in := &m.trace.Insts[idx]
		if !m.fuAvailable(in.Class, &aluUsed, &fpUsed, &loadUsed, &storeUsed) {
			r = append(r, idx)
			continue
		}
		m.schedule(idx, in)
		m.progressed = true
		issued++
	}
	m.ready = r
	m.iqLen -= issued
}

// await parks instruction idx on the consumer list of its first
// producer that has not issued, or, when all have, in waking until the
// latest of their results is available. Producers before the trace
// window (a SimPoint interval sliced from a longer trace) or already
// committed count as available: their values were computed earlier.
func (m *machine) await(idx int32) {
	in := &m.trace.Insts[idx]
	var at uint64
	for _, src := range [2]int32{in.Src1, in.Src2} {
		p := idx - src
		if src <= 0 || p < m.head {
			continue
		}
		e := &m.ring[p&m.mask]
		if e.doneAt == notDone {
			m.ring[idx&m.mask].next = e.waiters
			e.waiters = idx
			return
		}
		at = max(at, e.doneAt)
	}
	if at <= m.cycle {
		// Only dispatch gets here: a consumer woken by an issue has
		// at > cycle, so issue's walk of the ready list is never
		// disturbed.
		m.markReady(idx)
		return
	}
	m.waking = append(m.waking, wakeup{at: at, idx: idx})
	m.nextWake = min(m.nextWake, at)
}

// markReady inserts idx into the ready list in program order.
func (m *machine) markReady(idx int32) {
	r := append(m.ready, idx)
	i := len(r) - 1
	for ; i > 0 && r[i-1] > idx; i-- {
		r[i] = r[i-1]
	}
	r[i] = idx
	m.ready = r
}

// wakeDue moves every woken instruction whose operands have arrived by
// this cycle onto the ready list, keeping the list in program order.
func (m *machine) wakeDue() {
	next := notDone
	w := m.waking[:0]
	for _, e := range m.waking {
		if e.at > m.cycle {
			w = append(w, e)
			next = min(next, e.at)
			continue
		}
		m.markReady(e.idx)
	}
	m.waking = w
	m.nextWake = next
}

// fuAvailable reserves a functional-unit slot for the class if one is
// free this cycle.
func (m *machine) fuAvailable(c workload.OpClass, alu, fp, ld, st *int) bool {
	cfg := &m.d.cfg
	switch c {
	case workload.IntALU, workload.IntMul, workload.Branch:
		if *alu >= cfg.IntALUs {
			return false
		}
		*alu++
	case workload.FPALU, workload.FPMul:
		if *fp >= cfg.FPUs {
			return false
		}
		*fp++
	case workload.FPDiv:
		if *fp >= cfg.FPUs || m.cycle < m.fpDivFreeAt {
			return false
		}
		*fp++
	case workload.Load:
		if *ld >= cfg.LoadPorts {
			return false
		}
		*ld++
	case workload.Store:
		if *st >= cfg.StorePorts {
			return false
		}
		*st++
	}
	return true
}

// schedule computes the completion cycle for instruction idx and wakes
// the instructions waiting for its result.
func (m *machine) schedule(idx int32, in *workload.Inst) {
	var done uint64
	switch in.Class {
	case workload.IntALU:
		done = m.cycle + latIntALU
	case workload.IntMul:
		done = m.cycle + latIntMul
	case workload.FPALU:
		done = m.cycle + latFPALU
	case workload.FPMul:
		done = m.cycle + latFPMul
	case workload.FPDiv:
		done = m.cycle + latFPDiv
		m.fpDivFreeAt = m.cycle + latFPDiv // unpipelined divider
	case workload.Branch:
		done = m.cycle + latBranch
		if m.fetchBlockedOnBr && m.pendingRedirect == idx {
			// The mispredicted branch resolves; the front end restarts
			// after the redirect (pipeline refill) penalty.
			m.fetchBlockedOnBr = false
			m.fetchStallUntil = done + m.d.redirect
		}
	case workload.Store:
		done = m.cycle + latAGU
	case workload.Load:
		if fwd := m.forward(idx, in.Addr); fwd {
			done = m.cycle + latFwd
		} else {
			done = m.mem.load(in.Addr, m.cycle+latAGU)
		}
	}
	e := &m.ring[idx&m.mask]
	e.doneAt = done
	for c := e.waiters; c >= 0; {
		next := m.ring[c&m.mask].next
		m.await(c)
		c = next
	}
}

// forward reports whether an older in-flight store to the same address
// can forward its value to the load at idx.
func (m *machine) forward(idx int32, addr uint64) bool {
	for i := len(m.stores) - 1; i >= 0; i-- {
		s := m.stores[i]
		if s.idx >= idx {
			continue
		}
		if s.addr == addr {
			return true
		}
	}
	return false
}

// fetch brings up to Width instructions per cycle into the ROB, subject
// to the I-cache, the branch predictor, taken-branch fetch breaks, and
// every back-end resource (ROB, issue window, registers, LSQ, branch
// slots).
func (m *machine) fetch() {
	if m.fetchBlockedOnBr || m.cycle < m.fetchStallUntil {
		return
	}
	cfg := &m.d.cfg
	n := m.trace.Len()
	for fetched := 0; fetched < cfg.Width && m.fetchIdx < n; fetched++ {
		in := &m.trace.Insts[m.fetchIdx]

		// Structural resources.
		if m.robLen == cfg.ROBSize || m.iqLen == m.d.iqCap {
			return
		}
		switch in.Class {
		case workload.Load:
			if m.lsqLoadFree == 0 || m.intFree == 0 {
				return
			}
		case workload.Store:
			if m.lsqStoreFree == 0 {
				return
			}
		case workload.Branch:
			if m.brFree == 0 {
				return
			}
		default:
			if in.Class.IsFP() {
				if m.fpFree == 0 {
					return
				}
			} else if m.intFree == 0 {
				return
			}
		}

		// Instruction cache: a new line triggers a lookup; a miss
		// stalls the front end until the fill returns.
		line := in.PC >> m.d.l1iBlockShift
		if !m.icPrimed || line != m.lastICLine {
			ready := m.mem.ifetch(in.PC, m.cycle)
			m.lastICLine = line
			m.icPrimed = true
			if ready > m.cycle+m.d.l1iLat {
				m.fetchStallUntil = ready
				m.progressed = true
				return
			}
		}

		// Consume the resources and dispatch.
		switch in.Class {
		case workload.Load:
			m.lsqLoadFree--
			m.intFree--
		case workload.Store:
			m.lsqStoreFree--
			m.stores = append(m.stores, pendingStore{idx: int32(m.fetchIdx), addr: in.Addr})
		case workload.Branch:
			m.brFree--
		default:
			if in.Class.IsFP() {
				m.fpFree--
			} else {
				m.intFree--
			}
		}
		idx := int32(m.fetchIdx)
		m.ring[idx&m.mask] = robEntry{doneAt: notDone, waiters: -1}
		m.robLen++
		m.iqLen++
		m.await(idx)
		m.fetchIdx++
		m.progressed = true

		if in.Class == workload.Branch {
			m.branches++
			predTaken := m.bp.predict(in.PC)
			target, btbHit := m.btb.lookup(in.PC)
			correct := predTaken == in.Taken
			if in.Taken && (!btbHit || target != in.Target) {
				correct = false
			}
			m.bp.update(in.PC, in.Taken)
			if in.Taken {
				m.btb.update(in.PC, in.Target)
			}
			if !correct {
				m.brMispredicts++
				m.fetchBlockedOnBr = true
				m.pendingRedirect = int32(m.fetchIdx - 1)
				return
			}
			if in.Taken {
				// Correctly predicted taken branch still ends the
				// fetch group.
				return
			}
		}
	}
}

func (m *machine) result() Result {
	r := Result{
		App:         m.trace.App,
		Insts:       uint64(m.trace.Len()),
		Cycles:      m.cycle,
		L1IMissRate: m.mem.l1i.missRate(),
		L1DMissRate: m.mem.l1d.missRate(),
		L2MissRate:  m.mem.l2.missRate(),
	}
	if m.cycle > 0 {
		r.IPC = float64(r.Insts) / float64(m.cycle)
		r.L2BusUtil = float64(m.mem.l2BusBusy) / float64(m.cycle)
		r.FSBUtil = float64(m.mem.fsbBusy) / float64(m.cycle)
	}
	if m.branches > 0 {
		r.BrMispredRate = float64(m.brMispredicts) / float64(m.branches)
	}
	if m.robOccupancySamples > 0 {
		r.AvgROBOccupied = float64(m.robOccupancySum) / float64(m.robOccupancySamples)
	}
	return r
}
