package smcore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/stats"
)

// checkReadySets is the slot-set coherence oracle: every sub-core's
// incrementally maintained sets must equal a from-scratch recomputation
// over its slots. A mutation of a warp's lifecycle state, instruction
// buffer, cursor or scoreboard that skipped refresh shows up here at the
// first cycle boundary after it.
func checkReadySets(t testing.TB, sm *SM, cycle int64) {
	t.Helper()
	for _, sc := range sm.subcores {
		if want := sc.scanSets(); sc.sets != want {
			t.Fatalf("cycle %d sub%d: maintained slot sets %+v, warp state implies %+v",
				cycle, sc.id, sc.sets, want)
		}
	}
}

// barrierProg alternates short FMA runs with barriers; warps given
// different trip counts exit at different barriers, so releases count
// exited warps out.
func barrierProg(trips int) *program.Program {
	b := program.NewBuilder()
	b.Loop(int64(trips), func(lb *program.Builder) {
		lb.FMA(4, 1, 2, 3).FMA(5, 4, 2, 3).Bar()
	})
	return b.MustBuild()
}

// loadProg chains dependent global loads (long scoreboard waits) and
// ends on a load, so its EXIT drains an outstanding write.
func loadProg(trips int) *program.Program {
	b := program.NewBuilder()
	b.Loop(int64(trips), func(lb *program.Builder) {
		lb.LDG(8, 8, isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 20})
		lb.FMA(4, 8, 2, 3)
	})
	b.LDG(9, 4, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 16})
	return b.MustBuild()
}

// TestReadySetsCoherent drives barrier-, exit- and load-heavy blocks
// through one SM under every scheduler, the fully-connected SM (64 slots,
// 4 schedulers per sub-core) and bank stealing, refilling freed slots
// with new blocks and fast-forwarding quiescent spans as the device loop
// does, and checks the slot sets against the oracle after every step.
func TestReadySetsCoherent(t *testing.T) {
	kernels := []struct {
		name  string
		progs func(i int) *program.Program
	}{
		{"barrier", func(i int) *program.Program { return barrierProg(2 + i%5) }},
		{"exit", func(i int) *program.Program { return fmaProg(1 + 37*(i%4)*(i%3)) }},
		{"load", func(i int) *program.Program {
			if i%3 == 0 {
				return memMixProg(2)
			}
			return loadProg(1 + i%4)
		}},
	}
	cfgs := []struct {
		name string
		mut  func(*config.GPU)
	}{
		{"gto", nil},
		{"lrr", func(g *config.GPU) { g.WarpScheduler = config.SchedLRR }},
		{"rba", func(g *config.GPU) { g.WarpScheduler = config.SchedRBA; g.RBAScoreLatency = 2 }},
		{"fc", func(g *config.GPU) { *g = config.FullyConnected(); g.NumSMs = 1 }},
		{"gto-stealing", func(g *config.GPU) { g.BankStealing = true }},
	}
	for _, k := range kernels {
		for _, tc := range cfgs {
			k, tc := k, tc
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				sm, run := testSM(t, tc.mut)
				var blocks []*BlockSpec
				var want int64
				for b := 0; b < 12; b++ {
					progs := make([]*program.Program, 6+b%7)
					for i := range progs {
						progs[i] = k.progs(b + i)
						want += progs[i].Len()
					}
					blocks = append(blocks, &BlockSpec{KernelBlockID: b, Programs: progs,
						RegsPerThread: 16 + 8*(b%3), SharedMemBytes: 2048, FirstWarpGID: int64(b * 16)})
				}
				ffSpans := 0
				for c := int64(0); ; c++ {
					for len(blocks) > 0 && sm.CanAccept(blocks[0]) {
						if err := sm.Allocate(blocks[0]); err != nil {
							t.Fatal(err)
						}
						blocks = blocks[1:]
						checkReadySets(t, sm, c)
					}
					if len(blocks) == 0 {
						if next := sm.NextEvent(c); next > c && next != mem.NeverCycle {
							sm.FastForward(c, next-c)
							ffSpans++
							c = next
						}
					}
					sm.Tick(c)
					checkReadySets(t, sm, c)
					if c%97 == 0 {
						if vs := sm.Audit(); len(vs) != 0 {
							t.Fatalf("cycle %d: audit violations: %v", c, vs)
						}
					}
					if len(blocks) == 0 && sm.Drained() {
						break
					}
					if c > 2000000 {
						t.Fatal("SM did not drain")
					}
				}
				if got := issuedTotal(run); got != want {
					t.Fatalf("issued %d instructions, want %d", got, want)
				}
				if k.name == "load" && ffSpans == 0 {
					t.Error("load-heavy kernel never fast-forwarded; the quiescent path went unchecked")
				}
			})
		}
	}
}

func issuedTotal(run *stats.Run) int64 {
	var n int64
	for i := range run.SMs[0].SubCores {
		n += run.SMs[0].SubCores[i].Issued
	}
	return n
}
