// Package core implements the paper's two proposed mechanisms — the
// Register-Bank-Aware (RBA) warp scheduler (Section IV-A) and hashed
// sub-core warp assignment (Section IV-B) — together with the baseline
// policies they are evaluated against (GTO and LRR warp scheduling,
// round-robin sub-core assignment).
package core

import (
	"math/rand"

	"repro/internal/config"
	"repro/internal/isa"
)

// Candidate is a ready warp instruction presented to the warp scheduler:
// decoded, free of scoreboard hazards, and not parked at a barrier.
type Candidate struct {
	// Slot is the warp's slot in this scheduler's warp PC table.
	Slot int
	// Age orders warps by allocation time (smaller = older). GTO and RBA
	// break ties oldest-first.
	Age int64
	// Score is the RBA score — the summed (possibly delayed) arbiter
	// queue lengths of the banks holding the instruction's source
	// operands, saturated to 5 bits. Ignored by GTO and LRR.
	Score int
}

// WarpScheduler selects which ready warp issues each cycle. Implementations
// hold only per-scheduler state (one instance per sub-core scheduler).
type WarpScheduler interface {
	// Name returns the figure label for the policy.
	Name() string
	// Pick returns the index into cands of the warp to issue, or -1 if
	// cands is empty. Pick must not retain cands.
	Pick(cands []Candidate) int
	// NotifyIssued records that the warp in the given scheduler slot
	// issued, for policies with issue history (GTO's greedy slot, LRR's
	// rotation pointer).
	NotifyIssued(slot int)
	// Reset clears issue history (new kernel).
	Reset()
}

// NewWarpScheduler builds the scheduler for a policy.
func NewWarpScheduler(p config.WarpSched) WarpScheduler {
	switch p {
	case config.SchedLRR:
		return &LRR{}
	case config.SchedRBA:
		return &RBA{}
	default:
		return &GTO{}
	}
}

// GTO is greedy-then-oldest: keep issuing the last warp while it stays
// ready; otherwise fall back to the oldest ready warp. This is the
// baseline warp scheduler in Table II.
type GTO struct {
	last     int
	haveLast bool
}

// Name implements WarpScheduler.
func (g *GTO) Name() string { return "GTO" }

// Pick implements WarpScheduler.
func (g *GTO) Pick(cands []Candidate) int {
	if len(cands) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if g.haveLast && cands[i].Slot == g.last {
			return i
		}
		if cands[i].Age < cands[best].Age {
			best = i
		}
	}
	if g.haveLast && cands[0].Slot == g.last {
		return 0
	}
	return best
}

// NotifyIssued implements WarpScheduler.
func (g *GTO) NotifyIssued(slot int) { g.last, g.haveLast = slot, true }

// Reset implements WarpScheduler.
func (g *GTO) Reset() { g.haveLast = false }

// LRR is loose round-robin: rotate priority one past the last issued slot.
type LRR struct {
	next int
}

// Name implements WarpScheduler.
func (l *LRR) Name() string { return "LRR" }

// Pick implements WarpScheduler.
func (l *LRR) Pick(cands []Candidate) int {
	if len(cands) == 0 {
		return -1
	}
	best := -1
	bestKey := 1 << 30
	for i, c := range cands {
		// Distance from the rotation pointer, wrapping at a generous slot
		// bound; candidates are sparse so we rank by modular distance.
		d := c.Slot - l.next
		if d < 0 {
			d += 1 << 16
		}
		if d < bestKey {
			bestKey, best = d, i
		}
	}
	return best
}

// NotifyIssued implements WarpScheduler.
func (l *LRR) NotifyIssued(slot int) { l.next = slot + 1 }

// Reset implements WarpScheduler.
func (l *LRR) Reset() { l.next = 0 }

// RBA is the paper's register-bank-aware scheduler. The warp selection
// logic compares candidates on the concatenated field {RBA score, ~age}:
// the lowest score wins and ties go to the oldest warp — replacing GTO's
// greedy-then-oldest ordering (Section IV-A, Fig. 6).
type RBA struct{}

// ScoreBits is the width of the stored RBA score; scores saturate at
// (1<<ScoreBits)-1 = 31. With 2 CUs and 3 operands per CU the maximum
// queue length is 6, so 5 bits never saturates in the baseline shape.
const ScoreBits = 5

// MaxScore is the saturation value of the RBA score.
const MaxScore = 1<<ScoreBits - 1

// Name implements WarpScheduler.
func (r *RBA) Name() string { return "RBA" }

// Pick implements WarpScheduler.
func (r *RBA) Pick(cands []Candidate) int {
	if len(cands) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Score < cands[best].Score ||
			(cands[i].Score == cands[best].Score && cands[i].Age < cands[best].Age) {
			best = i
		}
	}
	return best
}

// NotifyIssued implements WarpScheduler.
func (r *RBA) NotifyIssued(int) {}

// Reset implements WarpScheduler.
func (r *RBA) Reset() {}

// Score computes an instruction's RBA score: for each source operand, add
// the length of the request queue of the bank the operand resides in
// (an instruction with two operands in the same bank counts that queue
// twice). queueLen is the arbiter tap, possibly delayed per the
// score-update-latency study. The result saturates to 5 bits.
func Score(in *isa.Instr, bankOf func(isa.Reg) int, queueLen func(bank int) int) int {
	s := 0
	for _, src := range in.Srcs {
		if !src.Valid() {
			continue
		}
		s += queueLen(bankOf(src))
		if s >= MaxScore {
			return MaxScore
		}
	}
	return s
}

// rngFor derives a deterministic per-SM random stream.
func rngFor(seed int64, smID int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(smID)*7919 + 12345))
}
