package smcore

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/regfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BlockSpec describes one thread block to place on an SM: one program per
// warp plus its resource demands. The gpu package builds these from
// workload kernels.
type BlockSpec struct {
	// KernelBlockID is the block's index within its kernel grid.
	KernelBlockID int
	// Programs holds one instruction stream per warp in the block.
	Programs []*program.Program
	// RegsPerThread is the compiler-assigned register footprint.
	RegsPerThread int
	// SharedMemBytes is the scratchpad reservation.
	SharedMemBytes int
	// FirstWarpGID is the kernel-wide warp index of warp 0 in this block.
	FirstWarpGID int64
}

// Warps returns the block's warp count.
func (b *BlockSpec) Warps() int { return len(b.Programs) }

// block is a resident thread block's bookkeeping on an SM.
type block struct {
	active         bool
	kernelBlockID  int
	warpsTotal     int
	warpsExited    int
	barrierWaiting int
	warpIdxs       []int32
	regsPerThread  int
	sharedBytes    int
}

// subRoom is CanAccept's per-sub-core feasibility scratch (free warp
// slots and register bytes), kept on the SM so the per-cycle placement
// probe never allocates.
type subRoom struct{ slots, regs int }

// wbEvent is a scheduled register writeback (execution or load return).
type wbEvent struct {
	cycle   int64
	warpIdx int32
	reg     isa.Reg
	bank    int8
	subCore int8
}

// wbHeap is a min-heap of writeback events ordered by cycle. It is a
// typed binary heap rather than container/heap because push/pop run on
// the per-cycle path: container/heap's interface{} Push/Pop boxes every
// wbEvent (one allocation per scheduled writeback, flagged by
// simlint's hotpath analyzer).
type wbHeap []wbEvent

func (h *wbHeap) push(e wbEvent) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].cycle <= q[i].cycle {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *wbHeap) pop() wbEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && q[l].cycle < q[small].cycle {
			small = l
		}
		if r := 2*i + 2; r < n && q[r].cycle < q[small].cycle {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return top
}

// SM is one streaming multiprocessor: sub-cores, the shared LSU, resident
// warps/blocks, and the warp→sub-core assigner.
type SM struct {
	id       int
	cfg      *config.GPU
	warps    []Warp
	blocks   []block
	subcores []*SubCore
	assigner core.Assigner
	lsu      *LSU
	hier     *mem.Hierarchy
	st       *stats.SM
	run      *stats.Run

	wb         wbHeap
	freeShmem  int
	ageCounter int64
	// rooms is CanAccept's reusable feasibility scratch.
	rooms []subRoom
	// auditSB is Audit's reusable expected-scoreboard scratch: the
	// periodic invariant sweep (gpu heartbeat, every monitorPeriod
	// cycles) must not allocate per visit.
	auditSB [][sbWords]uint64
	// residentWarps counts occupied warp slots (all states).
	residentWarps  int
	residentBlocks int
	// liveWarps counts warps not yet exited; the SM is drained when 0 and
	// no writebacks or LSU entries are pending.
	liveWarps int

	traceReads  bool
	lastRegRead int64

	// tr is the observability handle for this SM; nil when the SM is not
	// traced, which is the fast path every emission site branches on.
	tr *trace.SMT
}

// NewSM builds SM id for a validated config, wiring it to the shared
// memory hierarchy and the run's stats.
func NewSM(id int, cfg *config.GPU, hier *mem.Hierarchy, run *stats.Run) *SM {
	sm := &SM{
		id:        id,
		cfg:       cfg,
		warps:     make([]Warp, cfg.MaxWarpsPerSM),
		blocks:    make([]block, cfg.MaxBlocksPerSM),
		hier:      hier,
		st:        &run.SMs[id],
		run:       run,
		assigner:  core.NewAssigner(cfg.SubCoreAssign, cfg.SubCoresPerSM, cfg.HashTableEntries, cfg.Seed, id),
		freeShmem: cfg.SharedMemKBPerSM * 1024,
	}
	sm.lsu = newLSU(sm, cfg.LSUQueue)
	for i := 0; i < cfg.SubCoresPerSM; i++ {
		sm.subcores = append(sm.subcores, newSubCore(i, cfg, sm, &run.SMs[id].SubCores[i]))
	}
	sm.rooms = make([]subRoom, len(sm.subcores))
	return sm
}

// TraceReads enables the per-cycle register-read trace (Fig. 14); only
// meaningful on SM 0 of a run.
func (sm *SM) TraceReads(on bool) { sm.traceReads = on }

// SetTracer attaches the observability layer: the SM keeps its emission
// handle (nil when this SM is not traced) and forwards it to the LSU and
// each sub-core's operand collector. Pass nil to detach.
func (sm *SM) SetTracer(t *trace.Tracer) {
	h := t.ForSM(sm.id) // nil-safe: nil tracer or untraced SM yields nil
	sm.tr = h
	sm.lsu.tr = h
	for _, sc := range sm.subcores {
		sc.tr = h
		sc.coll.SetTracer(h, int8(sc.id))
	}
}

// TraceCounters implements trace.CounterSource: a point-in-time snapshot
// of the SM's occupancy, queue depths and cumulative throughput counters
// for the sampled time-series.
func (sm *SM) TraceCounters(s *trace.CounterSample) {
	s.Occupancy = int32(sm.residentWarps)
	s.LSUQueue = int32(sm.lsu.pending())
	banks := sm.cfg.BanksPerSubCore
	for i, sc := range sm.subcores {
		s.IssuedBySub[i] = sc.st.Issued
		s.OccBySub[i] = int32(sc.used)
		s.RFReadsTotal += sc.st.RegReads
		for b := 0; b < banks; b++ {
			s.QLenByBank[i*banks+b] = int32(sc.coll.QueueLen(b))
		}
	}
}

// CanAccept reports whether the SM can place the whole block: a block
// slot, shared memory, and — because registers and warp slots are
// partitioned per sub-core — a feasible per-sub-core placement for every
// warp. A block can be refused even when the SM's *total* free register
// space would suffice: per-sub-core fragmentation from earlier blocks
// (e.g. a concurrent kernel with a different register footprint) strands
// capacity. This is the paper's fourth partitioning effect (Section I).
//
// CanAccept runs on the per-cycle path (the block scheduler probes every
// SM each cycle while blocks are pending), hence the reusable rooms
// scratch instead of a per-call allocation.
//
//simlint:hotpath
func (sm *SM) CanAccept(b *BlockSpec) bool {
	if sm.residentBlocks >= len(sm.blocks) {
		return false
	}
	if sm.residentWarps+b.Warps() > sm.cfg.MaxWarpsPerSM {
		return false
	}
	if b.SharedMemBytes > sm.freeShmem {
		return false
	}
	// First-fit feasibility over per-sub-core slots and register space.
	perWarp := b.RegsPerThread * sm.cfg.WarpSize * 4
	rooms := sm.rooms
	for i, sc := range sm.subcores {
		rooms[i] = subRoom{slots: len(sc.slots) - sc.used, regs: sc.freeRegBytes}
	}
	for w := 0; w < b.Warps(); w++ {
		placed := false
		for i := range rooms {
			if rooms[i].slots > 0 && rooms[i].regs >= perWarp {
				rooms[i].slots--
				rooms[i].regs -= perWarp
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
	}
	return true
}

// Allocate places a block: each warp is pinned to the sub-core chosen by
// the assignment policy (falling back to the least-loaded sub-core with
// space when the designated one is full — counted, since the hash table
// in hardware is constructed so this cannot happen for balanced shapes).
// Call only after CanAccept. Runs once per placed block, not per cycle.
//
//simlint:cold
func (sm *SM) Allocate(b *BlockSpec) error {
	if !sm.CanAccept(b) {
		return fmt.Errorf("smcore: SM %d cannot accept block %d", sm.id, b.KernelBlockID)
	}
	blkSlot := -1
	for i := range sm.blocks {
		if !sm.blocks[i].active {
			blkSlot = i
			break
		}
	}
	blk := &sm.blocks[blkSlot]
	*blk = block{
		active:        true,
		kernelBlockID: b.KernelBlockID,
		warpsTotal:    b.Warps(),
		regsPerThread: b.RegsPerThread,
		sharedBytes:   b.SharedMemBytes,
	}
	sm.freeShmem -= b.SharedMemBytes
	for wi, prog := range b.Programs {
		scID := sm.assigner.Next()
		if !sm.subcores[scID].canHost(b.RegsPerThread) {
			// The designated sub-core is full (slots or registers); fall
			// back to the least-loaded sub-core with space. CanAccept
			// guaranteed a feasible placement exists.
			scID = sm.fallbackSubCore(b.RegsPerThread)
			sm.st.AssignFallbacks++
			if scID < 0 {
				panic("smcore: no sub-core can host a warp after CanAccept")
			}
		}
		warpIdx := sm.freeWarpSlot()
		sc := sm.subcores[scID]
		schedSlot := sc.host(int32(warpIdx), b.RegsPerThread)
		gid := b.FirstWarpGID + int64(wi)
		resetWarp(&sm.warps[warpIdx], gid, int32(blkSlot), int8(scID), schedSlot, sm.ageCounter, prog)
		sm.warps[warpIdx].BankOff = int16(regfile.SlotOffset(int(schedSlot), sm.cfg.BankSwizzle))
		sc.refresh(int(schedSlot))
		sm.ageCounter++
		blk.warpIdxs = append(blk.warpIdxs, int32(warpIdx))
		sm.residentWarps++
		sm.liveWarps++
	}
	sm.residentBlocks++
	if sm.tr != nil {
		sm.tr.Emit(trace.KBlockPlace, -1, -1, int32(b.KernelBlockID), int32(b.Warps()))
	}
	return nil
}

func (sm *SM) freeWarpSlot() int {
	for i := range sm.warps {
		if sm.warps[i].State == WarpEmpty {
			return i
		}
	}
	panic("smcore: no free warp slot after CanAccept")
}

func (sm *SM) fallbackSubCore(regsPerThread int) int {
	best, bestLoad := -1, 1<<30
	for i, sc := range sm.subcores {
		if sc.canHost(regsPerThread) && sc.used < bestLoad {
			best, bestLoad = i, sc.used
		}
	}
	return best
}

// scheduleWriteback books a register write at the given cycle; the write
// then contends for its bank's port before clearing the scoreboard.
func (sm *SM) scheduleWriteback(cycle int64, warpIdx int32, reg isa.Reg, bank int8, subCore int) {
	sm.wb.push(wbEvent{cycle: cycle, warpIdx: warpIdx, reg: reg, bank: bank, subCore: int8(subCore)})
}

// warpExited handles an EXIT issue: the warp stops fetching but keeps its
// slot and registers until the whole block retires.
func (sm *SM) warpExited(w *Warp) {
	w.State = WarpFinished
	sm.liveWarps--
	blk := &sm.blocks[w.BlockSlot]
	blk.warpsExited++
	sm.checkBarrierRelease(blk)
	if blk.warpsExited == blk.warpsTotal {
		sm.retireBlock(blk)
	}
}

// warpAtBarrier handles a BAR issue.
func (sm *SM) warpAtBarrier(w *Warp) {
	w.State = WarpAtBarrier
	blk := &sm.blocks[w.BlockSlot]
	blk.barrierWaiting++
	sm.checkBarrierRelease(blk)
}

// checkBarrierRelease opens the barrier once every non-exited warp of the
// block has arrived (exited warps no longer participate). Released warps
// may sit in any sub-core; each refreshes its slot there.
func (sm *SM) checkBarrierRelease(blk *block) {
	alive := blk.warpsTotal - blk.warpsExited
	if blk.barrierWaiting == 0 || blk.barrierWaiting < alive {
		return
	}
	blk.barrierWaiting = 0
	for _, wi := range blk.warpIdxs {
		w := &sm.warps[wi]
		if w.State == WarpAtBarrier {
			w.State = WarpActive
			sm.subcores[w.SubCore].refresh(int(w.SchedSlot))
		}
	}
}

// retireBlock frees every resource the block held — the all-at-once
// deallocation that makes sub-core imbalance expensive.
func (sm *SM) retireBlock(blk *block) {
	for _, wi := range blk.warpIdxs {
		w := &sm.warps[wi]
		sm.subcores[w.SubCore].release(w.SchedSlot, blk.regsPerThread)
		w.State = WarpEmpty
		sm.residentWarps--
	}
	sm.freeShmem += blk.sharedBytes
	blk.active = false
	sm.residentBlocks--
	sm.st.BlocksCompleted++
	if sm.tr != nil {
		sm.tr.Emit(trace.KBlockRetire, -1, -1, int32(blk.kernelBlockID), 0)
	}
}

// Tick advances the SM one cycle. Stages run back-to-front so results
// produced this cycle are visible no earlier than the next.
func (sm *SM) Tick(now int64) {
	// 1. Writeback events whose time has come enter the bank write ports.
	for len(sm.wb) > 0 && sm.wb[0].cycle <= now {
		e := sm.wb.pop()
		sm.subcores[e.subCore].coll.EnqueueWrite(regfile.WriteReq{WarpIdx: e.warpIdx, Reg: e.reg, Bank: e.bank})
		if sm.tr != nil {
			sm.tr.Emit(trace.KWriteback, e.subCore, e.warpIdx, int32(e.reg), int32(e.bank))
		}
	}
	// 2. The shared LSU admits memory instructions.
	sm.lsu.tick(now)
	// 3. Operand collection, dispatch, and write-port grants.
	for _, sc := range sm.subcores {
		sc.collectorTick(now)
	}
	// 4. Issue.
	for _, sc := range sm.subcores {
		sc.issueTick(now)
		if sm.cfg.BankStealing {
			sc.stealTick()
		}
	}
	// 5. Decode/fetch.
	for _, sc := range sm.subcores {
		sc.decodeTick()
	}
	// 6. Per-cycle register-read trace (Fig. 14).
	if sm.traceReads {
		var total int64
		for _, sc := range sm.subcores {
			total += sc.st.RegReads
		}
		delta := (total - sm.lastRegRead) * int64(sm.cfg.WarpSize)
		sm.lastRegRead = total
		if delta > 65535 {
			delta = 65535
		}
		sm.run.ReadsPerCycle = append(sm.run.ReadsPerCycle, uint16(delta))
	}
	// Account active cycles.
	if sm.residentWarps > 0 {
		for _, sc := range sm.subcores {
			sc.st.Cycles++
		}
	}
}

// NextEvent returns the earliest cycle at or after now at which ticking
// this SM could mutate state (beyond pure per-cycle stall accounting):
// now itself when any stage has work this cycle — an issuable or
// decodable warp, a collector with queued requests or a dispatchable
// unit, an LSU with an admissible entry — or the earliest time-gated
// event otherwise: the next writeback in the heap, or the LSU coalescer
// port freeing over a non-empty queue. mem.NeverCycle means the SM has
// no intrinsic future event (empty, or wedged until a barrier that will
// never release — the device deadline still bounds that).
//
// The contract (docs/ARCHITECTURE.md, "Performance"): if NextEvent(now)
// returns t > now, then Tick(c) for every c in [now, t) would change
// nothing except the stall/idle counters that FastForward replays in
// bulk. The run loop's fast-forward leans on this for byte-identical
// statistics; TestFastForwardInert enforces it end to end.
//
//simlint:hotpath
func (sm *SM) NextEvent(now int64) int64 {
	next := mem.NeverCycle
	if len(sm.wb) > 0 {
		if sm.wb[0].cycle <= now {
			return now
		}
		next = sm.wb[0].cycle // heap root is the earliest writeback
	}
	if sm.lsu.pending() > 0 {
		if sm.lsu.portFree <= now {
			return now
		}
		if sm.lsu.portFree < next {
			next = sm.lsu.portFree
		}
	}
	for _, sc := range sm.subcores {
		if !sc.quiescent(now) {
			return now
		}
	}
	return next
}

// FastForward bulk-charges n quiescent cycles starting at now: the
// exact counters n Ticks would have accumulated given NextEvent(now)
// reported no event before now+n. Stall attribution per sub-core
// replays issueTick's no-candidate decision; collector clocks and RBA
// queue-length rings advance bit-exactly; the per-cycle register-read
// trace (Fig. 14) appends its zero deltas. Emits one KFastForward event
// covering the span when the SM is traced.
func (sm *SM) FastForward(now, n int64) {
	for _, sc := range sm.subcores {
		sc.fastForward(n)
	}
	if sm.traceReads {
		for i := int64(0); i < n; i++ {
			// RegReads is static across a quiescent span, so every skipped
			// cycle's delta is zero.
			sm.run.ReadsPerCycle = append(sm.run.ReadsPerCycle, 0)
		}
	}
	if sm.residentWarps > 0 {
		for _, sc := range sm.subcores {
			sc.st.Cycles += n
		}
	}
	if sm.tr != nil {
		sm.tr.Emit(trace.KFastForward, -1, -1, int32(n), 0)
	}
}

// Drained reports whether the SM holds no work: no resident warps, no
// pending writebacks, no queued memory instructions, and empty collectors.
func (sm *SM) Drained() bool {
	if sm.residentWarps > 0 || len(sm.wb) > 0 || sm.lsu.pending() > 0 {
		return false
	}
	for _, sc := range sm.subcores {
		if !sc.coll.Drained() {
			return false
		}
	}
	return true
}

// ResidentWarps returns the number of occupied warp slots.
func (sm *SM) ResidentWarps() int { return sm.residentWarps }

// ResetForKernel clears scheduler history and the assigner between
// kernels of the same application (resources must already be drained).
func (sm *SM) ResetForKernel() {
	sm.assigner.Reset()
	for _, sc := range sm.subcores {
		sc.reset()
	}
}
