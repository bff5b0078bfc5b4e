// Package regfile models the banked register file, its arbitration unit,
// and the operand collector of one GPU sub-core (Fig. 2 and Fig. 6 of the
// paper).
//
// Each sub-core owns a small number of banks (2 on Volta/Ampere) and
// collector units (2 on Volta). A warp instruction issued by the scheduler
// is staged in a collector unit; one read request per source operand is
// queued at the operand's bank; the arbiter grants at most one access per
// bank per cycle (writebacks take priority over reads, as in GPGPU-Sim);
// when all operands are collected the instruction dispatches to its
// execution unit and the collector unit frees.
//
// The arbiter exposes its per-bank queue lengths — optionally through a
// delay line — which is the single piece of information the paper's RBA
// scheduler adds to the baseline design.
package regfile

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// warpSwizzle scrambles a warp slot into a per-warp bank offset for the
// optional swizzled mapping (see BankOf). The scramble keeps the low bit
// (so 2-bank sub-cores stay balanced across slots) and permutes the next
// three bits.
var warpSwizzle = [8]int{0, 5, 3, 6, 1, 4, 7, 2}

// BankOf maps an architectural register of a warp to a bank.
//
// The default (swizzle = false) is the mapping microbenchmarked out of
// Volta silicon [Jia et al.]: bank = register index mod banks, identical
// for every warp. Under it, co-resident warps running the same code press
// the same banks, so whole-program register-usage asymmetries turn into
// persistent bank-queue imbalance — the pressure RBA schedules around,
// and the reason slightly stale RBA scores remain useful (Section VI-B4).
//
// The swizzled variant adds a scrambled per-slot offset, modeling a
// hypothetical hardware remapping that decorrelates co-resident warps.
func BankOf(warpSlot int, reg isa.Reg, banks int, swizzle bool) int {
	return BankWithOffset(SlotOffset(warpSlot, swizzle), reg, banks)
}

// SlotOffset returns a warp slot's bank offset under the chosen mapping;
// precompute it once per warp and use BankWithOffset in hot paths.
func SlotOffset(warpSlot int, swizzle bool) int {
	if !swizzle {
		return 0
	}
	return warpSwizzle[(warpSlot>>1)&7]<<1 | (warpSlot & 1)
}

// BankWithOffset maps a register to a bank given a precomputed slot
// offset.
func BankWithOffset(off int, reg isa.Reg, banks int) int {
	if banks <= 1 {
		return 0
	}
	return (int(reg) + off) % banks
}

// readReq is a pending source-operand read queued at a bank.
type readReq struct {
	cu     int8
	stolen bool
}

// WriteReq is a pending destination-register writeback. The sub-core
// enqueues one per completed instruction and learns of the grant via
// GrantedWrites, at which point the scoreboard entry clears.
type WriteReq struct {
	// WarpIdx identifies the warp within the SM (opaque to this package).
	WarpIdx int32
	// Reg is the destination register being written.
	Reg isa.Reg
	// Bank is the destination bank, precomputed by the caller.
	Bank int8
}

// CollectorUnit stages one warp instruction while its operands are read.
type CollectorUnit struct {
	// Valid marks the CU occupied.
	Valid bool
	// WarpIdx identifies the issuing warp within the SM.
	WarpIdx int32
	// SchedSlot is the warp's slot in its scheduler, used for stats.
	SchedSlot int32
	// Instr is the staged instruction.
	Instr isa.Instr
	// Pending counts source operands not yet granted.
	Pending int8
	// Stolen marks a bank-stealing pre-allocation: its reads only use
	// otherwise-idle bank cycles and it never blocks normal traffic.
	Stolen bool
	// AllocCycle records when the CU was filled (for stats/debug).
	AllocCycle int64

	// tried marks the CU as having attempted dispatch this cycle.
	tried bool
}

// Ready reports whether all operands are collected and the instruction
// can dispatch.
func (c *CollectorUnit) Ready() bool { return c.Valid && c.Pending == 0 }

// Collector is the operand collector + arbitration unit of one sub-core.
type Collector struct {
	cus   []CollectorUnit
	banks int

	// queues[b] holds read requests waiting on bank b, FIFO.
	queues [][]readReq
	// writes[b] holds writeback requests for bank b, FIFO, priority.
	writes [][]WriteReq

	// granted writes this cycle, exposed to the sub-core.
	grantedW []WriteReq

	// qlenHist is a ring of per-bank normal-read queue lengths, one entry
	// per cycle, supporting the RBA score-update delay study (VI-B4).
	qlenHist [][]int16
	histPos  int

	cycle int64
	st    *stats.SubCore

	// auditRefs is Audit's reusable per-CU reference-count scratch: the
	// periodic invariant sweep must not allocate per visit.
	auditRefs []int

	// tr emits bank-grant trace events when the SM is traced (nil
	// otherwise — the disabled fast path); trSub is the owning sub-core.
	tr    *trace.SMT
	trSub int8
}

// NewCollector builds a collector with numCUs units over numBanks banks.
// scoreDelay is the maximum queue-length tap delay that will be requested
// (the history ring is sized for it).
func NewCollector(numCUs, numBanks, scoreDelay int, st *stats.SubCore) *Collector {
	if numCUs < 1 || numBanks < 1 {
		panic(fmt.Sprintf("regfile: invalid collector shape %d CUs, %d banks", numCUs, numBanks))
	}
	c := &Collector{
		cus:    make([]CollectorUnit, numCUs),
		banks:  numBanks,
		queues: make([][]readReq, numBanks),
		writes: make([][]WriteReq, numBanks),
		st:     st,
	}
	c.qlenHist = make([][]int16, scoreDelay+1)
	for i := range c.qlenHist {
		c.qlenHist[i] = make([]int16, numBanks)
	}
	return c
}

// SetTracer attaches (or with nil detaches) the observability handle of
// the SM owning this collector; sub identifies the sub-core in events.
func (c *Collector) SetTracer(h *trace.SMT, sub int8) {
	c.tr = h
	c.trSub = sub
}

// Banks returns the bank count.
func (c *Collector) Banks() int { return c.banks }

// NumCUs returns the collector-unit count.
func (c *Collector) NumCUs() int { return len(c.cus) }

// CU returns the i-th collector unit for inspection.
func (c *Collector) CU(i int) *CollectorUnit { return &c.cus[i] }

// FreeCU returns the index of a free collector unit, or -1.
func (c *Collector) FreeCU() int {
	for i := range c.cus {
		if !c.cus[i].Valid {
			return i
		}
	}
	return -1
}

// FreeCUCount returns how many collector units are free.
func (c *Collector) FreeCUCount() int {
	n := 0
	for i := range c.cus {
		if !c.cus[i].Valid {
			n++
		}
	}
	return n
}

// Allocate fills collector unit cu with an instruction from warpIdx whose
// registers map to banks with the warp's precomputed bank offset (see
// SlotOffset). One read request per valid source operand is queued at its
// bank. Allocate panics if the CU is occupied — the issue stage must
// check FreeCU first.
func (c *Collector) Allocate(cu int, warpIdx, schedSlot int32, in isa.Instr, bankOff int, stolen bool) {
	u := &c.cus[cu]
	if u.Valid {
		panic("regfile: allocating an occupied collector unit")
	}
	*u = CollectorUnit{
		Valid:      true,
		WarpIdx:    warpIdx,
		SchedSlot:  schedSlot,
		Instr:      in,
		Stolen:     stolen,
		AllocCycle: c.cycle,
	}
	for _, s := range in.Srcs {
		if !s.Valid() {
			continue
		}
		b := BankWithOffset(bankOff, s, c.banks)
		u.Pending++
		c.queues[b] = append(c.queues[b], readReq{cu: int8(cu), stolen: stolen})
	}
}

// EnqueueWrite queues a writeback. Writebacks have priority over reads at
// their bank; the caller clears the scoreboard entry when the write shows
// up in GrantedWrites.
//
//simlint:hotpath
func (c *Collector) EnqueueWrite(w WriteReq) {
	if int(w.Bank) < 0 || int(w.Bank) >= c.banks {
		panic(fmt.Sprintf("regfile: write to bank %d of %d", w.Bank, c.banks))
	}
	c.writes[w.Bank] = append(c.writes[w.Bank], w)
}

// GrantedWrites returns the writebacks granted by the last Tick. The
// slice is reused; callers must consume it before the next Tick.
func (c *Collector) GrantedWrites() []WriteReq { return c.grantedW }

// QueueLen returns the current number of *normal* (non-stolen) read
// requests waiting at bank b — the quantity summed into RBA scores.
func (c *Collector) QueueLen(b int) int {
	n := 0
	for _, r := range c.queues[b] {
		if !r.stolen {
			n++
		}
	}
	return n
}

// Backlogged reports whether any bank has a queued normal (non-stolen)
// read — the signature the issue stage uses to attribute a
// no-free-collector-unit stall to bank conflicts rather than plain CU
// exhaustion (the CPI stack's bank-conflict component).
func (c *Collector) Backlogged() bool {
	for b := range c.queues {
		for i := range c.queues[b] {
			if !c.queues[b][i].stolen {
				return true
			}
		}
	}
	return false
}

// BlockedOnMem reports whether a fully collected, non-stolen collector
// unit is staged with a memory-class instruction — its operands are
// read but the LSU would not accept it, so CU exhaustion with quiet
// banks is memory backpressure (the CPI stack's memory component).
func (c *Collector) BlockedOnMem() bool {
	for i := range c.cus {
		u := &c.cus[i]
		if u.Valid && u.Pending == 0 && !u.Stolen && u.Instr.Op.UnitOf() == isa.ClassMEM {
			return true
		}
	}
	return false
}

// DelayedQueueLen returns the bank-b queue length as observed delay
// cycles ago (0 = current). Requests older than the ring's capacity
// saturate to the oldest recorded value.
func (c *Collector) DelayedQueueLen(b, delay int) int {
	if delay <= 0 {
		return c.QueueLen(b)
	}
	// The snapshot at histPos was recorded during the current cycle's
	// Tick (before the issue stage reads it), so delay d maps to ring
	// offset d-1. Delays beyond the ring saturate.
	if delay > len(c.qlenHist)-1 {
		delay = len(c.qlenHist) - 1
	}
	idx := c.histPos - (delay - 1)
	for idx < 0 {
		idx += len(c.qlenHist)
	}
	return int(c.qlenHist[idx][b])
}

// Tick advances the collector one cycle:
//
//  1. Each bank's write port drains one writeback and its read port
//     grants one read (banks are 1R+1W dual-ported, as on Volta): the
//     oldest normal read first; stolen reads only when the read port
//     would otherwise idle.
//  2. Ready collector units attempt dispatch through the dispatch
//     callback (true = the execution unit accepted); dispatched CUs free.
//  3. The per-bank queue-length snapshot is recorded for delayed taps.
//
// Requests left waiting behind a granted access on the same port are
// counted as bank conflicts.
func (c *Collector) Tick(dispatch func(*CollectorUnit) bool) {
	c.grantedW = c.grantedW[:0]
	for b := 0; b < c.banks; b++ {
		// Write port.
		if len(c.writes[b]) > 0 {
			w := c.writes[b][0]
			c.grantedW = append(c.grantedW, w)
			copy(c.writes[b], c.writes[b][1:])
			c.writes[b] = c.writes[b][:len(c.writes[b])-1]
			if c.st != nil {
				c.st.RegWrites++
				c.st.BankConflicts += int64(len(c.writes[b]))
			}
			if c.tr != nil {
				c.tr.Emit(trace.KBankWrite, c.trSub, w.WarpIdx, int32(b), 0)
			}
		}
		// Read port: oldest normal read first; stolen reads only when the
		// port would otherwise idle.
		gi := -1
		for i, r := range c.queues[b] {
			if !r.stolen {
				gi = i
				break
			}
		}
		if gi == -1 && len(c.queues[b]) > 0 {
			gi = 0 // only stolen requests present: port is idle, steal it
		}
		if gi >= 0 {
			r := c.queues[b][gi]
			c.queues[b] = append(c.queues[b][:gi], c.queues[b][gi+1:]...)
			u := &c.cus[r.cu]
			u.Pending--
			if u.Pending < 0 {
				panic("regfile: operand granted for an empty collector unit")
			}
			if c.st != nil {
				c.st.RegReads++
				for _, rr := range c.queues[b] {
					if !rr.stolen {
						c.st.BankConflicts++
					}
				}
			}
			if c.tr != nil {
				c.tr.Emit(trace.KBankRead, c.trSub, u.WarpIdx, int32(b), int32(r.cu))
			}
		}
	}

	// Dispatch ready CUs, oldest allocation first (the priority logic of
	// the baseline design). A CU whose execution unit cannot accept this
	// cycle stays staged; younger CUs bound for other units still get
	// their own dispatch ports.
	for remaining := len(c.cus); remaining > 0; remaining-- {
		best := -1
		for i := range c.cus {
			if c.cus[i].Ready() && !c.cus[i].tried &&
				(best == -1 || c.cus[i].AllocCycle < c.cus[best].AllocCycle) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		c.cus[best].tried = true
		if dispatch(&c.cus[best]) {
			c.cus[best].Valid = false
		}
	}
	for i := range c.cus {
		c.cus[i].tried = false
	}

	// Record queue lengths for delayed RBA taps.
	c.histPos++
	if c.histPos == len(c.qlenHist) {
		c.histPos = 0
	}
	snap := c.qlenHist[c.histPos]
	for b := 0; b < c.banks; b++ {
		snap[b] = int16(c.QueueLen(b))
	}
	c.cycle++
}

// neverCycle is the NextEvent sentinel for "no intrinsic future event".
const neverCycle = int64(math.MaxInt64)

// NextEvent returns the earliest cycle at which a Tick would mutate
// collector state: now when any bank has a queued read or writeback
// (grants fire every cycle) or a non-stolen collector unit is staged
// (it dispatches, or blocks attributably, every cycle), and neverCycle
// otherwise. A *stolen* pre-allocation with all operands collected is
// inert: it converts only at formal issue, which requires an issuable
// warp — the sub-core's own quiescence check covers that. This is the
// contract the run loop's idle-cycle fast-forward relies on: when every
// collector reports no event, skipped Ticks would have been no-ops
// (grant-less, dispatch-less) except for the clock and queue-length
// ring, which FastForward replays exactly.
//
//simlint:hotpath
func (c *Collector) NextEvent(now int64) int64 {
	for b := 0; b < c.banks; b++ {
		if len(c.queues[b]) > 0 || len(c.writes[b]) > 0 {
			return now
		}
	}
	for i := range c.cus {
		u := &c.cus[i]
		if u.Valid && !u.Stolen {
			return now
		}
	}
	return neverCycle
}

// FastForward advances the collector's clock by n quiescent cycles,
// replaying exactly what n Ticks would have done given NextEvent
// reported no event: no grants, no dispatches, only the cycle counter
// and the queue-length history ring advancing (the ring feeds RBA's
// delayed score tap, so it must stay bit-exact across a skip).
func (c *Collector) FastForward(n int64) {
	ring := int64(len(c.qlenHist))
	steps := n
	if steps > ring {
		steps = ring // older slots would be overwritten anyway
	}
	for i := int64(0); i < steps; i++ {
		c.histPos++
		if c.histPos == len(c.qlenHist) {
			c.histPos = 0
		}
		snap := c.qlenHist[c.histPos]
		for b := 0; b < c.banks; b++ {
			snap[b] = int16(c.QueueLen(b))
		}
	}
	if n > ring {
		// All slots now hold the current snapshot; land histPos where n
		// single-cycle advances would have left it.
		c.histPos = int((int64(c.histPos) + n - steps) % ring)
	}
	c.cycle += n
}

// Drained reports whether no collector unit is occupied and no request is
// queued — used by tests and by the sub-core's completion check.
func (c *Collector) Drained() bool {
	for i := range c.cus {
		if c.cus[i].Valid {
			return false
		}
	}
	for b := 0; b < c.banks; b++ {
		if len(c.queues[b]) > 0 || len(c.writes[b]) > 0 {
			return false
		}
	}
	return true
}
