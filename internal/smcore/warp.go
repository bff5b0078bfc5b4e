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
type Warp struct {
	// State is the lifecycle state.
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
	Cursor program.Cursor
	// IBuf is the 2-entry instruction buffer; IBufN is its fill level.
	IBuf  [2]isa.Instr
	IBufN int8
	// sb is the pending-destination-register bitset (RAW/WAW scoreboard);
	// sbCount is the number of set registers.
	sb      [sbWords]uint64
	sbCount int16
	// StolenCU is the collector unit holding a bank-stealing
	// pre-allocation for this warp's IBuf[0], or -1.
	StolenCU int8
	// MemCounter sequences this warp's memory accesses for address
	// synthesis.
	MemCounter int64
	// rng is the warp-private xorshift state for PatRandom addresses.
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
