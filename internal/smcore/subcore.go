package smcore

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// execUnit models the SIMD pipelines of one class within a sub-core. A
// Volta sub-core has one 16-lane FP32 pipe; the hypothetical
// fully-connected SM pools four of them, so lane budgets above the native
// pipe width become additional dispatch ports rather than one wider pipe.
type execUnit struct {
	ii    int64
	ports []int64 // per-pipe next-free cycle
}

func newExecUnit(lanes, pipeWidth int) execUnit {
	if pipeWidth < 1 {
		pipeWidth = 1
	}
	n := lanes / pipeWidth
	if n < 1 {
		n = 1
	}
	w := pipeWidth
	if lanes < pipeWidth {
		w = lanes
	}
	return execUnit{
		ii:    int64(isa.InitiationInterval(w)),
		ports: make([]int64, n),
	}
}

func (e *execUnit) ready(now int64) bool {
	for _, p := range e.ports {
		if p <= now {
			return true
		}
	}
	return false
}

func (e *execUnit) accept(now int64) {
	for i, p := range e.ports {
		if p <= now {
			e.ports[i] = now + e.ii
			return
		}
	}
	panic("smcore: accept on busy execution unit")
}

// SubCore is one partition of an SM: a warp scheduler (or several, for the
// fully-connected model), a slice of the register file with its operand
// collector, and private execution units.
type SubCore struct {
	id    int
	cfg   *config.GPU
	sm    *SM
	slots []int32 // warp indices into sm.warps; -1 = empty
	used  int

	sched core.WarpScheduler
	coll  *regfile.Collector
	eu    [isa.NumClasses]execUnit

	// freeRegBytes tracks unallocated register-file capacity.
	freeRegBytes int

	// sets are the slot bitmasks the issue, decode and fast-forward
	// stages walk instead of scanning every slot (see readySets).
	sets readySets

	st *stats.SubCore

	// tr is the SM's observability handle (nil = not traced, fast path).
	tr *trace.SMT

	// scratch buffers reused across cycles.
	cands   []core.Candidate
	qlenBuf []int

	// dispatchFn is the operand-collector dispatch callback, built once
	// at construction: allocating a fresh closure in collectorTick would
	// cost one heap allocation per sub-core per cycle (simlint hotpath).
	// dispNow/dispPorts carry the per-cycle arguments it closes over.
	dispatchFn func(*regfile.CollectorUnit) bool
	dispNow    int64
	dispPorts  int
}

// readySets are a sub-core's per-slot issue-stage bitmasks: bit i stands
// for scheduler slot i (config.Validate caps a sub-core at 64 slots). They
// are derived state, a pure function of each hosted warp's lifecycle
// state, instruction buffer, cursor and scoreboard (slotSets), kept
// current by refresh at exactly the events that change those inputs: a
// writeback clearing a hazard-set warp's scoreboard, a successful issue (scoreboard set,
// buffer pop, EXIT, BAR), a decode refill, a barrier release, and a warp
// being hosted. The Audit readyset law and the tests' coherence oracle
// recompute them from scratch.
type readySets struct {
	// ready: active, buffered, and the head instruction passes the
	// scoreboard and the EXIT/BAR drain rule: an issue candidate.
	ready uint64
	// hazard: active and buffered, but the head instruction is blocked on
	// the scoreboard, or is an EXIT or BAR waiting for its writes to drain.
	hazard uint64
	// decode: active, instruction buffer not full, cursor not done.
	decode uint64
	// active and barrier mirror WarpActive and WarpAtBarrier; an occupied
	// slot in neither holds a finished warp.
	active  uint64
	barrier uint64
}

// put replaces one slot's bits (bit) with those of b, which holds no
// other slot's bits.
func (s *readySets) put(bit uint64, b readySets) {
	s.ready = s.ready&^bit | b.ready
	s.hazard = s.hazard&^bit | b.hazard
	s.decode = s.decode&^bit | b.decode
	s.active = s.active&^bit | b.active
	s.barrier = s.barrier&^bit | b.barrier
}

// slotSets computes slot's bits of every set from its warp's state.
func (sc *SubCore) slotSets(slot int) readySets {
	var s readySets
	wi := sc.slots[slot]
	if wi < 0 {
		return s
	}
	bit := uint64(1) << uint(slot)
	w := &sc.sm.warps[wi]
	switch w.State {
	case WarpActive:
	case WarpAtBarrier:
		s.barrier = bit
		return s
	default:
		return s
	}
	s.active = bit
	if w.IBufN < 2 && !w.Cursor.Done() {
		s.decode = bit
	}
	if w.IBufN == 0 {
		return s
	}
	in := &w.IBuf[0]
	// EXIT and BAR drain outstanding writes first.
	if w.Hazard(in) || (in.Op.IsExit() || in.Op.IsBarrier()) && !w.SBEmpty() {
		s.hazard = bit
	} else {
		s.ready = bit
	}
	return s
}

// refresh recomputes one slot's bits after an event that may have
// changed its warp's issue, decode or lifecycle state.
func (sc *SubCore) refresh(slot int) {
	sc.sets.put(uint64(1)<<uint(slot), sc.slotSets(slot))
}

// scanSets recomputes every slot's bits from scratch for the coherence
// checks (the Audit readyset law and the checkReadySets test oracle),
// never on the per-cycle path.
func (sc *SubCore) scanSets() readySets {
	var s readySets
	for slot := range sc.slots {
		s.put(uint64(1)<<uint(slot), sc.slotSets(slot))
	}
	return s
}

func newSubCore(id int, cfg *config.GPU, sm *SM, st *stats.SubCore) *SubCore {
	sc := &SubCore{
		id:           id,
		cfg:          cfg,
		sm:           sm,
		slots:        make([]int32, cfg.WarpsPerSubCore()),
		sched:        core.NewWarpScheduler(cfg.WarpScheduler),
		coll:         regfile.NewCollector(cfg.CollectorUnitsPerSubCore, cfg.BanksPerSubCore, maxScoreDelay(cfg), st),
		freeRegBytes: cfg.RegFileKBPerSubCore * 1024,
		st:           st,
	}
	for i := range sc.slots {
		sc.slots[i] = -1
	}
	// Native pipe widths are Volta's: 16-lane FP32/INT pipes, 4-lane SFU.
	// Wider lane budgets (the fully-connected SM) become more pipes.
	sc.eu[isa.ClassFP32] = newExecUnit(cfg.FP32LanesPerSubCore, 16)
	sc.eu[isa.ClassINT] = newExecUnit(cfg.IntLanesPerSubCore, 16)
	sc.eu[isa.ClassSFU] = newExecUnit(cfg.SFULanesPerSubCore, 4)
	tensors := cfg.TensorPerSubCore
	if tensors < 1 {
		tensors = 1
	}
	sc.eu[isa.ClassTensor] = execUnit{ii: 4, ports: make([]int64, tensors)}
	// The MEM "unit" is an issue port into the SM-shared LSU; its real
	// acceptance check is the LSU queue's, applied at dispatch.
	sc.eu[isa.ClassMEM] = execUnit{ii: 1, ports: make([]int64, 1)}
	sc.dispatchFn = func(cu *regfile.CollectorUnit) bool {
		if sc.dispPorts <= 0 {
			return false
		}
		if cu.Stolen {
			return false // pre-read operands wait for formal issue
		}
		if !sc.dispatch(cu, sc.dispNow) {
			return false
		}
		sc.dispPorts--
		return true
	}
	return sc
}

func maxScoreDelay(cfg *config.GPU) int {
	if cfg.RBAScoreLatency > 0 {
		return cfg.RBAScoreLatency
	}
	return 1
}

// regBytesPerWarp returns the register-file bytes a warp of the given
// per-thread register count occupies.
func (sc *SubCore) regBytesPerWarp(regsPerThread int) int {
	return regsPerThread * sc.cfg.WarpSize * 4
}

// canHost reports whether the sub-core has a free slot and register space
// for one more warp.
func (sc *SubCore) canHost(regsPerThread int) bool {
	return sc.used < len(sc.slots) && sc.freeRegBytes >= sc.regBytesPerWarp(regsPerThread)
}

// host places warp index w into a free slot and reserves registers,
// returning the scheduler slot. The caller initializes the warp and then
// refreshes the slot.
func (sc *SubCore) host(w int32, regsPerThread int) int16 {
	for i := range sc.slots {
		if sc.slots[i] == -1 {
			sc.slots[i] = w
			sc.used++
			sc.freeRegBytes -= sc.regBytesPerWarp(regsPerThread)
			return int16(i)
		}
	}
	panic("smcore: host called with no free slot")
}

// release frees a warp's slot and registers (block completion). The
// slot sets need no refresh: every warp of a retiring block has exited,
// and a finished warp is in no set.
func (sc *SubCore) release(slot int16, regsPerThread int) {
	if sc.slots[slot] == -1 {
		panic("smcore: releasing an empty slot")
	}
	sc.slots[slot] = -1
	sc.used--
	sc.freeRegBytes += sc.regBytesPerWarp(regsPerThread)
}

// bankOf maps one register of a warp.
func (sc *SubCore) bankOf(w *Warp, r isa.Reg) int {
	return regfile.BankWithOffset(int(w.BankOff), r, sc.cfg.BanksPerSubCore)
}

// collectorTick advances the operand collector: bank grants, writeback
// grants (which clear scoreboards), and dispatch of ready collector units
// into execution units or the LSU, bounded by the sub-core's dispatch
// ports per cycle.
func (sc *SubCore) collectorTick(now int64) {
	sc.dispNow = now
	sc.dispPorts = sc.cfg.DispatchPortsPerSubCore
	sc.coll.Tick(sc.dispatchFn)
	for _, wr := range sc.coll.GrantedWrites() {
		w := &sc.sm.warps[wr.WarpIdx]
		w.SBClear(wr.Reg)
		// Clearing a pending register can only unblock a warp in the
		// hazard set; every other warp's bits do not depend on it.
		if sc.sets.hazard&(1<<uint(w.SchedSlot)) != 0 {
			sc.refresh(int(w.SchedSlot))
		}
	}
}

// dispatch sends a collected instruction to its execution unit. Memory
// instructions enter the SM-shared LSU queue instead.
func (sc *SubCore) dispatch(cu *regfile.CollectorUnit, now int64) bool {
	in := &cu.Instr
	class := in.Op.UnitOf()
	if class == isa.ClassMEM {
		if !sc.sm.lsu.enqueue(cu.WarpIdx, sc.id, *in) {
			return false
		}
		if sc.tr != nil {
			sc.tr.Emit(trace.KDispatch, int8(sc.id), cu.WarpIdx, int32(in.Op), 0)
		}
		return true
	}
	u := &sc.eu[class]
	if !u.ready(now) {
		return false
	}
	u.accept(now)
	if in.Dst.Valid() {
		w := &sc.sm.warps[cu.WarpIdx]
		sc.sm.scheduleWriteback(now+int64(in.Op.Latency()), cu.WarpIdx, in.Dst, int8(sc.bankOf(w, in.Dst)), sc.id)
	}
	if sc.tr != nil {
		sc.tr.Emit(trace.KDispatch, int8(sc.id), cu.WarpIdx, int32(in.Op), 0)
	}
	return true
}

// buildCandidates fills sc.cands with the ready warps, in ascending slot
// order, scoring each for RBA.
//
//simlint:hotpath
func (sc *SubCore) buildCandidates() {
	sc.cands = sc.cands[:0]
	ready := sc.sets.ready
	if ready == 0 {
		return
	}
	banks := sc.cfg.BanksPerSubCore
	rba := sc.cfg.WarpScheduler == config.SchedRBA
	if rba {
		// Snapshot the arbiter queue lengths once per cycle (the RBA
		// score tap, optionally through the delay line).
		if cap(sc.qlenBuf) < banks {
			sc.qlenBuf = make([]int, banks) //simlint:allow hotpath -- grow-once scratch buffer; amortized to zero per cycle
		}
		sc.qlenBuf = sc.qlenBuf[:banks]
		delay := sc.cfg.RBAScoreLatency
		for b := 0; b < banks; b++ {
			sc.qlenBuf[b] = sc.coll.DelayedQueueLen(b, delay)
		}
	}
	for ; ready != 0; ready &= ready - 1 {
		w := sc.warpAtSchedSlot(bits.TrailingZeros64(ready))
		c := core.Candidate{Slot: int(w.SchedSlot), Age: w.Age}
		if rba {
			// Sum the (possibly delayed) queue lengths of each source
			// operand's bank from the per-cycle snapshot.
			score := 0
			off := int(w.BankOff)
			for _, src := range w.IBuf[0].Srcs {
				if !src.Valid() {
					continue
				}
				score += sc.qlenBuf[regfile.BankWithOffset(off, src, banks)]
			}
			if score > core.MaxScore {
				score = core.MaxScore
			}
			c.Score = score
		}
		sc.cands = append(sc.cands, c)
	}
}

// warpAtSchedSlot resolves a scheduler slot back to the warp.
func (sc *SubCore) warpAtSchedSlot(slot int) *Warp {
	wi := sc.slots[slot]
	if wi < 0 {
		panic("smcore: candidate for empty slot")
	}
	return &sc.sm.warps[wi]
}

// issueTick runs the scheduler(s): up to SchedulersPerSubCore instructions
// issue per cycle, each from a distinct warp, falling through to
// lower-priority candidates when the top choice cannot issue (no free
// collector unit, blocked pipe).
func (sc *SubCore) issueTick(now int64) {
	sc.buildCandidates()
	issued := 0
	blockedCU := false
	blockedEU := false
	blockedMem := false
	for port := 0; port < sc.cfg.SchedulersPerSubCore; port++ {
		for len(sc.cands) > 0 {
			pick := sc.sched.Pick(sc.cands)
			if pick < 0 {
				break
			}
			cand := sc.cands[pick]
			// Remove the candidate (issue or skip, it is spent this cycle).
			sc.cands[pick] = sc.cands[len(sc.cands)-1]
			sc.cands = sc.cands[:len(sc.cands)-1]
			w := sc.warpAtSchedSlot(cand.Slot)
			// Captured before tryIssue: an EXIT can retire the block and
			// clear the slot before the event is emitted.
			wIdx, op := sc.slots[cand.Slot], w.IBuf[0].Op
			ok, cu, euBusy, memBusy := sc.tryIssue(w, now)
			if ok {
				sc.refresh(cand.Slot)
				sc.sched.NotifyIssued(cand.Slot)
				sc.st.Issued++
				sc.sm.run.Instructions++
				issued++
				if sc.tr != nil {
					sc.tr.Emit(trace.KIssue, int8(sc.id), wIdx, int32(op), int32(cand.Slot))
				}
				break
			}
			blockedCU = blockedCU || cu
			blockedEU = blockedEU || euBusy
			blockedMem = blockedMem || memBusy
		}
	}
	if issued > 0 {
		sc.st.IssueCycles++
		return
	}
	reason := sc.chargeStall(1, blockedCU, blockedEU, blockedMem)
	if sc.tr != nil {
		sc.tr.Emit(trace.KStall, int8(sc.id), -1, int32(reason), 0)
	}
}

// chargeStall attributes n non-issue cycles (Fig. 1's effect
// decomposition) and returns the reason charged. Exactly one StallCycles
// bucket is charged per non-issue cycle — with the refined sub-counters
// below, this is what makes the CPI stack (stats.SubCore.CPI) sum
// bit-exactly to total cycles. The blocked flags say which resource
// refused a candidate this cycle; with none set, the slot sets decide.
// A failed issue changes no set, so the sets read here are those the
// cycle's candidates were built from.
func (sc *SubCore) chargeStall(n int64, blockedCU, blockedEU, blockedMem bool) stats.StallReason {
	var reason stats.StallReason
	switch {
	case blockedCU:
		reason = stats.StallNoCU
		// Split CU exhaustion by its upstream cause: backlogged bank
		// queues mean the CUs are hostage to bank conflicts; a collected
		// memory instruction stuck in a CU means LSU backpressure; quiet
		// banks and no stuck memory op is plain structural shortage.
		switch {
		case sc.coll.Backlogged():
			sc.st.ConflictNoCU += n
		case sc.coll.BlockedOnMem():
			sc.st.MemNoCU += n
		}
	case blockedEU || blockedMem:
		reason = stats.StallEUBusy
		if blockedMem {
			sc.st.MemEUBusy += n
		}
	case sc.sets.hazard != 0:
		reason = stats.StallScoreboard
	case sc.sets.barrier != 0 && sc.sets.active == 0:
		reason = stats.StallBarrier
	default:
		reason = stats.StallNoWarp
		if sc.sm.residentWarps == 0 {
			sc.st.SMIdleCycles += n
		}
		if sc.used > 0 && sc.sets.active|sc.sets.barrier == 0 {
			sc.st.IdleAllFinished += n
		}
	}
	sc.st.StallCycles[reason] += n
	return reason
}

// quiescent reports whether ticking this sub-core at now would mutate
// nothing except stall accounting: its collector has no event (no queued
// reads/writes, no dispatchable unit), no warp is ready to issue, and no
// warp can decode. Hazard-blocked warps wait on writebacks, which the
// SM's writeback heap reports; barrier and finished warps act only via
// other warps' issues. With no candidates the scheduler's Pick is never
// consulted, so scheduler state is untouched too — the property that
// makes skipped cycles byte-identical for GTO, LRR, and RBA alike.
//
//simlint:hotpath
func (sc *SubCore) quiescent(now int64) bool {
	return sc.sets.ready == 0 && sc.sets.decode == 0 && sc.coll.NextEvent(now) > now
}

// fastForward replays what n quiescent issueTicks would have charged —
// chargeStall with no candidate blocked, n times over — plus the
// collector's clock and queue-length ring. A ready warp here means the
// caller's NextEvent contract was violated, which is a simulator bug
// worth dying loudly for (the differential test would otherwise just
// report drift).
func (sc *SubCore) fastForward(n int64) {
	if sc.sets.ready != 0 {
		panic("smcore: fast-forward over a sub-core with issuable candidates")
	}
	sc.chargeStall(n, false, false, false)
	sc.coll.FastForward(n)
}

// tryIssue attempts to issue warp w's IBuf[0]. Returns ok, plus which
// resource blocked the failure: a missing collector unit, a busy
// compute execution port, or a full LSU queue (the memory path — kept
// distinct so the CPI stack can attribute the cycle to memory).
func (sc *SubCore) tryIssue(w *Warp, now int64) (ok, noCU, euBusy, memBusy bool) {
	in := w.IBuf[0]
	switch {
	case in.Op.IsExit():
		sc.consume(w)
		sc.sm.warpExited(w)
		return true, false, false, false
	case in.Op.IsBarrier():
		sc.consume(w)
		sc.sm.warpAtBarrier(w)
		return true, false, false, false
	case in.Op == isa.OpNOP:
		sc.consume(w)
		return true, false, false, false
	}
	if !in.HasSrc() {
		// Zero-source, register-writing instructions (LDC) bypass the
		// operand collector and dispatch directly.
		return sc.issueDirect(w, &in, now)
	}
	// A bank-stealing pre-allocation for this very instruction converts
	// to a normal issue: operands are already (being) read.
	if w.StolenCU >= 0 {
		cu := sc.coll.CU(int(w.StolenCU))
		cu.Stolen = false
		w.StolenCU = -1
		if in.Dst.Valid() {
			w.SBSet(in.Dst)
		}
		sc.consume(w)
		return true, false, false, false
	}
	cuIdx := sc.coll.FreeCU()
	if cuIdx < 0 {
		return false, true, false, false
	}
	sc.coll.Allocate(cuIdx, sc.slotIndex(w), int32(w.SchedSlot), in, int(w.BankOff), false)
	if in.Dst.Valid() {
		w.SBSet(in.Dst)
	}
	sc.consume(w)
	return true, false, false, false
}

// issueDirect handles zero-source ops that still execute (LDC and
// degenerate ALU ops): they skip the collector but need their unit.
func (sc *SubCore) issueDirect(w *Warp, in *isa.Instr, now int64) (ok, noCU, euBusy, memBusy bool) {
	class := in.Op.UnitOf()
	if class == isa.ClassMEM {
		if !sc.sm.lsu.enqueue(sc.slotIndex(w), sc.id, *in) {
			return false, false, false, true
		}
	} else if class != isa.ClassNone {
		u := &sc.eu[class]
		if !u.ready(now) {
			return false, false, true, false
		}
		u.accept(now)
		if in.Dst.Valid() {
			sc.sm.scheduleWriteback(now+int64(in.Op.Latency()), sc.slotIndex(w), in.Dst, int8(sc.bankOf(w, in.Dst)), sc.id)
		}
	}
	if in.Dst.Valid() {
		w.SBSet(in.Dst)
	}
	sc.consume(w)
	return true, false, false, false
}

// slotIndex returns the warp's index in the SM warp table.
func (sc *SubCore) slotIndex(w *Warp) int32 { return sc.slots[w.SchedSlot] }

// consume pops IBuf[0].
func (sc *SubCore) consume(w *Warp) {
	w.IBuf[0] = w.IBuf[1]
	w.IBufN--
}

// stealTick pre-allocates a free collector unit with the
// highest-priority remaining candidate whose instruction reads registers,
// so its operands are fetched using otherwise-idle bank cycles —
// register bank stealing [36]. Runs after issueTick; sc.cands holds the
// candidates not issued this cycle.
func (sc *SubCore) stealTick() {
	cuIdx := sc.coll.FreeCU()
	if cuIdx < 0 {
		return
	}
	for _, cand := range sc.cands {
		w := sc.warpAtSchedSlot(cand.Slot)
		if w.StolenCU >= 0 || w.IBufN == 0 {
			continue
		}
		in := w.IBuf[0]
		if !in.HasSrc() || in.Op.IsExit() || in.Op.IsBarrier() {
			continue
		}
		sc.coll.Allocate(cuIdx, sc.slotIndex(w), int32(w.SchedSlot), in, int(w.BankOff), true)
		w.StolenCU = int8(cuIdx)
		return
	}
}

// decodeTick refills the instruction buffers of the slots in the decode
// set (ideal front-end: the paper's effects are entirely in the
// issue/operand/execute back-end).
func (sc *SubCore) decodeTick() {
	for dec := sc.sets.decode; dec != 0; dec &= dec - 1 {
		slot := bits.TrailingZeros64(dec)
		w := &sc.sm.warps[sc.slots[slot]]
		for w.IBufN < 2 && !w.Cursor.Done() {
			in, _ := w.Cursor.Next()
			w.IBuf[w.IBufN] = in
			w.IBufN++
		}
		sc.refresh(slot)
	}
}

// reset prepares the sub-core for a new kernel.
func (sc *SubCore) reset() {
	sc.sched.Reset()
}
