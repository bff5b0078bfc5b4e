// Package config defines the simulated GPU's structural and policy
// parameters. The defaults reproduce Table II of the paper (the Accel-Sim
// Volta V100 configuration with 4 sub-cores per SM, 2 register-file banks
// and 2 collector units per sub-core).
package config

import (
	"encoding/json"
	"fmt"
	"io"
)

// WarpSched selects the per-sub-core warp scheduling policy.
type WarpSched uint8

const (
	// SchedGTO is greedy-then-oldest, the paper's baseline.
	SchedGTO WarpSched = iota
	// SchedLRR is loose round-robin.
	SchedLRR
	// SchedRBA is the paper's register-bank-aware scheduler: lowest
	// {RBA score, age-complement} wins.
	SchedRBA
)

// String returns the policy name used in figures.
func (w WarpSched) String() string {
	switch w {
	case SchedGTO:
		return "GTO"
	case SchedLRR:
		return "LRR"
	case SchedRBA:
		return "RBA"
	default:
		return fmt.Sprintf("WarpSched(%d)", uint8(w))
	}
}

// Assign selects the warp-to-sub-core assignment policy applied when a
// thread block is allocated onto an SM.
type Assign uint8

const (
	// AssignRR is the round-robin assignment contemporary hardware uses
	// (established by the paper's microbenchmarking), the baseline.
	AssignRR Assign = iota
	// AssignSRR is the paper's skewed round robin hash:
	// subcore = (W + floor(W/N)) mod N.
	AssignSRR
	// AssignShuffle is the paper's random shuffle hash: a random
	// permutation per group of N warps, balanced to within one warp.
	AssignShuffle
)

// String returns the policy name used in figures.
func (a Assign) String() string {
	switch a {
	case AssignRR:
		return "RR"
	case AssignSRR:
		return "SRR"
	case AssignShuffle:
		return "Shuffle"
	default:
		return fmt.Sprintf("Assign(%d)", uint8(a))
	}
}

// GPU holds every structural and policy parameter of a simulated GPU.
// Construct presets with VoltaV100 and derive variants with the With*
// helpers; Validate before use.
type GPU struct {
	// Name labels the configuration in reports.
	Name string

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// SubCoresPerSM is the partitioning degree (1 = monolithic/fully
	// connected, 4 = Volta/Ampere).
	SubCoresPerSM int
	// SchedulersPerSubCore is the number of warp instructions a sub-core
	// may issue per cycle. Partitioned sub-cores have 1; the hypothetical
	// fully-connected SM is modeled as 1 sub-core with 4 schedulers.
	SchedulersPerSubCore int
	// MaxWarpsPerSM caps resident warps (64 on Volta).
	MaxWarpsPerSM int
	// MaxBlocksPerSM caps resident thread blocks (32 on Volta).
	MaxBlocksPerSM int
	// WarpSize is threads per warp (32).
	WarpSize int

	// RegFileKBPerSubCore is register-file capacity per sub-core (64 KB).
	RegFileKBPerSubCore int
	// BanksPerSubCore is the number of register-file banks a sub-core's
	// warps can place operands in (2 on Volta/Ampere; 8 fully connected).
	BanksPerSubCore int
	// CollectorUnitsPerSubCore is the operand-collector capacity (2 on
	// Volta; the CU-scaling study sweeps this).
	CollectorUnitsPerSubCore int
	// DispatchPortsPerSubCore caps how many collected instructions may
	// leave the operand collector for execution units per cycle (the
	// sub-core's result-bus width). CU scaling adds staging capacity but
	// not dispatch bandwidth, which is what bounds its returns.
	DispatchPortsPerSubCore int

	// FP32LanesPerSubCore, IntLanesPerSubCore, SFULanesPerSubCore size the
	// SIMD pipes (16/16/4 per Volta sub-core).
	FP32LanesPerSubCore int
	IntLanesPerSubCore  int
	SFULanesPerSubCore  int
	// TensorPerSubCore is the number of tensor-core issue ports.
	TensorPerSubCore int

	// SharedMemKBPerSM is scratchpad capacity (part of the 128 KB unified
	// L1/shared on Volta; we expose 96 KB as scratchpad).
	SharedMemKBPerSM int
	// SharedMemBanks is the scratchpad bank count (32).
	SharedMemBanks int
	// LSUWidthPerSM is memory instructions the SM-shared LSU accepts per
	// cycle.
	LSUWidthPerSM int
	// LSUQueue is the LSU input queue depth per SM.
	LSUQueue int

	// L1KBPerSM is L1 data cache capacity (remainder of the 128 KB
	// unified array).
	L1KBPerSM int
	// L1Assoc and LineBytes shape the caches.
	L1Assoc   int
	LineBytes int
	// L2KB and L2Assoc shape the shared L2 (6 MB, 24-way on V100).
	L2KB    int
	L2Assoc int
	// L2Latency is the round-trip from an SM to an L2 hit.
	L2Latency int
	// DRAMLatency is added on an L2 miss.
	DRAMLatency int
	// DRAMBytesPerCycle is aggregate DRAM bandwidth (HBM2 ~900 GB/s at
	// 1.4 GHz core clock ≈ 640 B/cycle).
	DRAMBytesPerCycle int
	// L2BytesPerCycle is aggregate L2 bandwidth.
	L2BytesPerCycle int

	// WarpScheduler is the per-sub-core issue policy.
	WarpScheduler WarpSched
	// SubCoreAssign is the warp→sub-core placement policy.
	SubCoreAssign Assign
	// RBAScoreLatency delays the bank-queue-length tap feeding RBA scores
	// by this many cycles (Section VI-B4 sweeps 0–20).
	RBAScoreLatency int
	// BankStealing enables the register bank stealing comparator [36]:
	// free collector units are pre-filled and read operands using only
	// otherwise-idle bank cycles.
	BankStealing bool
	// BankSwizzle selects a per-warp-slot scrambled register-to-bank
	// mapping instead of Volta's plain reg-mod-banks mapping.
	BankSwizzle bool
	// HashTableEntries sizes the hash-function table for Shuffle (each
	// entry encodes 4 warp assignments; 4 entries ⇒ the pattern repeats
	// every 16 warps, 16 ⇒ unique assignment for all 64 warps).
	HashTableEntries int

	// TraceSamplePeriod is the observability layer's counter-sampling
	// period in cycles (register-file read rate, per-bank arbiter queue
	// depth, per-sub-core occupancy/issue rate, LSU queue depth). 0
	// disables counter sampling.
	TraceSamplePeriod int
	// TraceRingCap is the per-SM capacity of the structured-event ring
	// buffers, in events (0 selects the trace package default). Without a
	// sink attached the ring is a flight recorder holding the last
	// TraceRingCap events.
	TraceRingCap int

	// AuditEvery arms the runtime invariant auditor (internal/audit): the
	// run loop re-derives the device's conservation laws — scoreboard vs
	// in-flight writers, collector leases vs bank reservations, MSHR
	// bookkeeping, occupancy and register/scratchpad budgets, the CPI
	// stack — at least every AuditEvery cycles, surfacing any violation as
	// a structured *gpu.AuditError instead of silent state corruption.
	// Audits run at heartbeat boundaries, so the effective cadence is
	// AuditEvery rounded up to the next heartbeat (1024 cycles). 0
	// disables auditing (the production fast path). Auditing never mutates
	// state: results are byte-identical on or off.
	AuditEvery int64

	// NoFastForward disables the run loop's idle-cycle fast-forward: the
	// event-driven skip over cycles in which no SM could issue, decode,
	// dispatch, or write back. Fast-forward is provably inert — results
	// are byte-identical either way (TestFastForwardInert) — so
	// the flag exists only as a debugging escape hatch and for
	// differential testing; leave it false for speed.
	NoFastForward bool

	// Seed drives every stochastic choice (shuffle permutations, random
	// memory patterns) so runs are reproducible.
	Seed int64
}

// FromJSON reads a configuration as JSON, starting from the VoltaV100
// defaults so files only need to name the fields they change, e.g.
//
//	{"NumSMs": 8, "WarpScheduler": 2, "BanksPerSubCore": 4}
//
// The result is validated.
func FromJSON(r io.Reader) (GPU, error) {
	g := VoltaV100()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return GPU{}, fmt.Errorf("config: %w", err)
	}
	if err := g.Validate(); err != nil {
		return GPU{}, err
	}
	return g, nil
}

// VoltaV100 returns the paper's Table II baseline configuration.
func VoltaV100() GPU {
	return GPU{
		Name:                     "V100",
		NumSMs:                   80,
		SubCoresPerSM:            4,
		SchedulersPerSubCore:     1,
		MaxWarpsPerSM:            64,
		MaxBlocksPerSM:           32,
		WarpSize:                 32,
		RegFileKBPerSubCore:      64,
		BanksPerSubCore:          2,
		CollectorUnitsPerSubCore: 2,
		DispatchPortsPerSubCore:  2,
		FP32LanesPerSubCore:      16,
		IntLanesPerSubCore:       16,
		SFULanesPerSubCore:       4,
		TensorPerSubCore:         1,
		SharedMemKBPerSM:         96,
		SharedMemBanks:           32,
		LSUWidthPerSM:            1,
		LSUQueue:                 64,
		L1KBPerSM:                128,
		L1Assoc:                  4,
		LineBytes:                128,
		L2KB:                     6 * 1024,
		L2Assoc:                  24,
		L2Latency:                190,
		DRAMLatency:              220,
		DRAMBytesPerCycle:        640,
		L2BytesPerCycle:          1280,
		WarpScheduler:            SchedGTO,
		SubCoreAssign:            AssignRR,
		RBAScoreLatency:          0,
		BankStealing:             false,
		BankSwizzle:              true,
		HashTableEntries:         4,
		Seed:                     1,
	}
}

// FullyConnected returns the hypothetical monolithic SM of Figure 1: the
// same total thread, bank, collector-unit, and SIMD capacity as VoltaV100,
// but with no sub-core partitioning — every warp may use any of the SM's 8
// banks, 8 collector units, and all execution lanes, and 4 instructions
// issue per cycle.
func FullyConnected() GPU {
	g := VoltaV100()
	g.Name = "FullyConnected"
	g.SubCoresPerSM = 1
	g.SchedulersPerSubCore = 4
	g.RegFileKBPerSubCore = 4 * 64
	g.BanksPerSubCore = 8
	g.CollectorUnitsPerSubCore = 8
	g.DispatchPortsPerSubCore = 8
	g.FP32LanesPerSubCore = 64
	g.IntLanesPerSubCore = 64
	g.SFULanesPerSubCore = 16
	g.TensorPerSubCore = 4
	return g
}

// RDNALike returns a stand-in for AMD's dual compute unit (Section
// II-A): two partitions sharing the L1/scratchpad, each with half the
// monolithic capacity. Useful for studying the 2-way partitioning point
// between Volta's 4-way split and a monolithic core.
func RDNALike() GPU {
	g := VoltaV100()
	g.Name = "RDNALike"
	g.SubCoresPerSM = 2
	g.SchedulersPerSubCore = 2
	g.RegFileKBPerSubCore = 128
	g.BanksPerSubCore = 4
	g.CollectorUnitsPerSubCore = 4
	g.DispatchPortsPerSubCore = 4
	g.FP32LanesPerSubCore = 32
	g.IntLanesPerSubCore = 32
	g.SFULanesPerSubCore = 8
	g.TensorPerSubCore = 2
	return g
}

// KeplerLike returns a monolithic SM stand-in for the pre-Maxwell
// generations of Figure 3 (no partitioning; four banks visible to every
// warp, as in pre-partitioning designs [34]).
func KeplerLike() GPU {
	g := FullyConnected()
	g.Name = "KeplerLike"
	return g
}

// TPCH returns the TPC-H evaluation variant of Table II: 20 SMs (with the
// full device memory system) to model the per-SM load of scale factors
// beyond the simulated 100 GB — each SM sees 4x the bandwidth share of
// the 80-SM configuration.
func TPCH(base GPU) GPU {
	base.Name = base.Name + "-tpch"
	base.NumSMs = 20
	return base
}

// WithScheduler returns a copy with the warp scheduler replaced.
func (g GPU) WithScheduler(s WarpSched) GPU {
	g.WarpScheduler = s
	g.Name = g.Name + "+" + s.String()
	return g
}

// WithAssign returns a copy with the sub-core assignment policy replaced.
func (g GPU) WithAssign(a Assign) GPU {
	g.SubCoreAssign = a
	g.Name = g.Name + "+" + a.String()
	return g
}

// WithCUs returns a copy with the collector-unit count per sub-core set.
func (g GPU) WithCUs(n int) GPU {
	g.CollectorUnitsPerSubCore = n
	g.Name = fmt.Sprintf("%s+%dCU", g.Name, n)
	return g
}

// WithBanks returns a copy with the register bank count per sub-core set.
func (g GPU) WithBanks(n int) GPU {
	g.BanksPerSubCore = n
	g.Name = fmt.Sprintf("%s+%dbank", g.Name, n)
	return g
}

// WithSMs returns a copy with the SM count set.
func (g GPU) WithSMs(n int) GPU {
	g.NumSMs = n
	g.Name = fmt.Sprintf("%s+%dSM", g.Name, n)
	return g
}

// WithBankStealing returns a copy with bank stealing enabled.
func (g GPU) WithBankStealing() GPU {
	g.BankStealing = true
	g.Name = g.Name + "+steal"
	return g
}

// WithNoFastForward returns a copy with idle-cycle fast-forward disabled
// (the differential-testing escape hatch; results are byte-identical,
// only wall-clock changes). The Name is deliberately untouched: the
// configuration simulates the same machine.
func (g GPU) WithNoFastForward() GPU {
	g.NoFastForward = true
	return g
}

// WithAudit returns a copy with the runtime invariant auditor armed at
// the given cycle cadence (rounded up to heartbeat granularity at run
// time). The Name is deliberately untouched: auditing observes the same
// machine without perturbing it.
func (g GPU) WithAudit(everyCycles int64) GPU {
	g.AuditEvery = everyCycles
	return g
}

// WarpsPerSubCore returns the resident-warp capacity of one sub-core.
func (g GPU) WarpsPerSubCore() int {
	n := g.MaxWarpsPerSM / g.SubCoresPerSM
	if n < 1 {
		n = 1
	}
	return n
}

// RegsPerSubCore returns the 32-bit register count one sub-core's file
// holds across all lanes (capacity / 4 bytes).
func (g GPU) RegsPerSubCore() int { return g.RegFileKBPerSubCore * 1024 / 4 }

// RegSlotsPerWarp returns how many per-warp architectural registers the
// sub-core file can hold if all its warp slots are occupied.
func (g GPU) RegSlotsPerWarp() int {
	return g.RegsPerSubCore() / (g.WarpSize * g.WarpsPerSubCore())
}

// Validate checks structural invariants and returns a descriptive error
// for the first violation.
func (g GPU) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{g.NumSMs >= 1, "NumSMs must be >= 1"},
		{g.SubCoresPerSM >= 1, "SubCoresPerSM must be >= 1"},
		{g.SchedulersPerSubCore >= 1, "SchedulersPerSubCore must be >= 1"},
		{g.MaxWarpsPerSM >= g.SubCoresPerSM, "MaxWarpsPerSM must cover every sub-core"},
		{g.SubCoresPerSM < 1 || g.MaxWarpsPerSM%g.SubCoresPerSM == 0, "MaxWarpsPerSM must divide evenly among sub-cores"},
		{g.SubCoresPerSM < 1 || g.WarpsPerSubCore() <= 64, "a sub-core holds at most 64 warps (MaxWarpsPerSM/SubCoresPerSM); its issue stage tracks slots in 64-bit masks"},
		{g.WarpSize == 32, "WarpSize must be 32"},
		{g.BanksPerSubCore >= 1, "BanksPerSubCore must be >= 1"},
		{g.CollectorUnitsPerSubCore >= 1, "CollectorUnitsPerSubCore must be >= 1"},
		{g.DispatchPortsPerSubCore >= 1, "DispatchPortsPerSubCore must be >= 1"},
		{g.FP32LanesPerSubCore >= 1, "FP32LanesPerSubCore must be >= 1"},
		{g.LSUWidthPerSM >= 1, "LSUWidthPerSM must be >= 1"},
		{g.LineBytes > 0 && g.LineBytes&(g.LineBytes-1) == 0, "LineBytes must be a power of two"},
		{g.L1KBPerSM >= 1, "L1KBPerSM must be >= 1"},
		{g.L2KB >= 1, "L2KB must be >= 1"},
		{g.HashTableEntries == 4 || g.HashTableEntries == 16, "HashTableEntries must be 4 or 16"},
		{g.RBAScoreLatency >= 0, "RBAScoreLatency must be >= 0"},
		{g.MaxBlocksPerSM >= 1, "MaxBlocksPerSM must be >= 1"},
		{g.SharedMemKBPerSM >= 0, "SharedMemKBPerSM must be >= 0"},
		{g.TraceSamplePeriod >= 0, "TraceSamplePeriod must be >= 0"},
		{g.TraceRingCap >= 0, "TraceRingCap must be >= 0"},
		{g.AuditEvery >= 0, "AuditEvery must be >= 0"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("config %q: %s", g.Name, c.msg)
		}
	}
	return nil
}
