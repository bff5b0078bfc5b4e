// Package smcore models one streaming multiprocessor: its sub-cores (warp
// scheduler + operand collector + SIMD execution units each), the
// SM-shared load/store unit, thread-block-granularity resource
// allocation, and barriers. This is the structure whose partitioning the
// paper studies; every mechanism the paper identifies — static sub-core
// warp assignment, block-granularity deallocation, per-sub-core bank and
// collector-unit budgets — is modeled directly.
package smcore

import (
	"repro/internal/isa"
	"repro/internal/program"
)

// WarpState tracks a resident warp's lifecycle.
type WarpState uint8

const (
	// WarpEmpty marks an unoccupied warp slot.
	WarpEmpty WarpState = iota
	// WarpActive warps fetch and issue.
	WarpActive
	// WarpAtBarrier warps wait for the rest of their block.
	WarpAtBarrier
	// WarpFinished warps have issued EXIT but still hold their slot and
	// registers until the whole block completes — the static-assignment
	// pathology of Section III-B.
	WarpFinished
)

const sbWords = 4 // scoreboard bitset covers 256 architectural registers

// Warp is a resident warp's hardware state on an SM.
//
//snapshot:state
type Warp struct {
	// State is the lifecycle state.
	//simlint:allow nexteventguard -- folded into the sub-core's slot sets, which NextEvent reads; every state change refreshes the slot (coherence: checkReadySets, Audit readyset law)
	State WarpState
	// GID is the kernel-wide warp index (block * warpsPerBlock + lane),
	// used for address synthesis and reporting.
	GID int64
	// BlockSlot indexes the SM's resident-block table.
	BlockSlot int32
	// SubCore and SchedSlot locate the warp in its scheduler's PC table;
	// BankOff is the precomputed register-bank offset of the slot.
	SubCore   int8
	SchedSlot int16
	BankOff   int16
	// Age is the SM-wide allocation order; GTO/RBA tie-break on it.
	Age int64
	// Cursor walks the warp's program.
	//simlint:allow nexteventguard -- cursor exhaustion is the decode set NextEvent reads; decodeTick refreshes the slot after every advance (coherence: checkReadySets, Audit readyset law)
	Cursor program.Cursor
	// IBuf is the 2-entry instruction buffer; IBufN is its fill level.
	//simlint:allow nexteventguard -- the head instruction is classified into the ready/hazard sets NextEvent reads; issue and decode refresh the slot whenever it changes (coherence: checkReadySets, Audit readyset law)
	IBuf [2]isa.Instr
	//simlint:allow nexteventguard -- the fill level is folded into the ready and decode sets NextEvent reads; issue and decode refresh the slot whenever it changes (coherence: checkReadySets, Audit readyset law)
	IBufN int8
	// sb is the pending-destination-register bitset (RAW/WAW scoreboard);
	// sbCount is the number of set registers.
	//simlint:allow nexteventguard -- scoreboard hazards are folded into the ready/hazard sets NextEvent reads; issue (SBSet) refreshes the slot, and writeback (SBClear) refreshes it when it is in the hazard set, the only bits a cleared register can change (coherence: checkReadySets, Audit readyset law)
	sb [sbWords]uint64
	//simlint:allow nexteventguard -- the drain rule for EXIT/BAR is folded into the ready/hazard sets NextEvent reads; issue refreshes the slot, and so does the writeback that drains a hazard-set warp (coherence: checkReadySets, Audit readyset law)
	sbCount int16
	// StolenCU is the collector unit holding a bank-stealing
	// pre-allocation for this warp's IBuf[0], or -1.
	//simlint:allow nexteventguard -- set and cleared within issue/writeback activity, which the wb heap and CU state report
	StolenCU int8
	// MemCounter sequences this warp's memory accesses for address
	// synthesis.
	//simlint:allow nexteventguard -- moves only at issue and writeback completion, both events NextEvent reports
	MemCounter int64
	// rng is the warp-private xorshift state for PatRandom addresses.
	//simlint:allow nexteventguard -- RBA sampling stream draws only when the scheduler issues; quiescent spans draw nothing
	rng uint64
}

// SBSet reserves register r (at issue).
func (w *Warp) SBSet(r isa.Reg) {
	idx, bit := int(r)>>6, uint(r)&63
	if idx >= sbWords {
		idx, bit = sbWords-1, 63 // clamp: workloads stay under 256 regs
	}
	if w.sb[idx]&(1<<bit) == 0 {
		w.sb[idx] |= 1 << bit
		w.sbCount++
	}
}

// SBClear releases register r (at writeback).
func (w *Warp) SBClear(r isa.Reg) {
	idx, bit := int(r)>>6, uint(r)&63
	if idx >= sbWords {
		idx, bit = sbWords-1, 63
	}
	if w.sb[idx]&(1<<bit) != 0 {
		w.sb[idx] &^= 1 << bit
		w.sbCount--
	}
}

// SBPending reports whether register r has an outstanding write.
func (w *Warp) SBPending(r isa.Reg) bool {
	idx, bit := int(r)>>6, uint(r)&63
	if idx >= sbWords {
		idx, bit = sbWords-1, 63
	}
	return w.sb[idx]&(1<<bit) != 0
}

// SBEmpty reports whether no writes are outstanding.
func (w *Warp) SBEmpty() bool { return w.sbCount == 0 }

// Hazard reports whether instruction in has a RAW or WAW hazard against
// this warp's outstanding writes.
func (w *Warp) Hazard(in *isa.Instr) bool {
	if in.Dst.Valid() && w.SBPending(in.Dst) {
		return true
	}
	for _, s := range in.Srcs {
		if s.Valid() && w.SBPending(s) {
			return true
		}
	}
	return false
}

// NextRand steps the warp's xorshift64 PRNG.
func (w *Warp) NextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// resetWarp prepares a slot for a new warp.
func resetWarp(w *Warp, gid int64, blockSlot int32, subCore int8, schedSlot int16, age int64, prog *program.Program) {
	*w = Warp{
		State:     WarpActive,
		GID:       gid,
		BlockSlot: blockSlot,
		SubCore:   subCore,
		SchedSlot: schedSlot,
		Age:       age,
		Cursor:    prog.Cursor(),
		StolenCU:  -1,
		rng:       uint64(gid)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
	}
}
