package smcore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/stats"
)

// memMixProg exercises every in-flight-writer source the audit models:
// global and shared loads (LSU + writeback heap), constant loads, FMA
// chains (collector units + queued writebacks), and a barrier.
func memMixProg(trips int) *program.Program {
	b := program.NewBuilder()
	b.Loop(int64(trips), func(lb *program.Builder) {
		lb.LDG(8, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 18, StrideBytes: 4})
		lb.FMA(4, 8, 2, 3)
		lb.LDS(9, 4, isa.MemTrait{Footprint: 1 << 12, StrideBytes: 4})
		lb.FMA(5, 9, 2, 3)
		lb.LDC(10)
		lb.IMAD(6, 10, 4, 5)
		lb.Bar()
	})
	return b.MustBuild()
}

func TestAuditCatchesSeededScoreboardCorruption(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := memMixProg(50)
	hier := mem.NewHierarchy(cfg)
	sm := NewSM(0, &cfg, hier, stats.NewRun(1, cfg.SubCoresPerSM))
	if err := sm.Allocate(specOf([]*program.Program{prog, prog}, 16, 0)); err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 100; c++ {
		sm.Tick(c)
	}
	if vs := sm.Audit(); len(vs) != 0 {
		t.Fatalf("healthy SM reported %v", vs)
	}
	if !sm.CorruptScoreboardForTest() {
		t.Fatal("no active warp to corrupt")
	}
	vs := sm.Audit()
	if len(vs) == 0 {
		t.Fatal("seeded scoreboard inconsistency not detected")
	}
	for _, v := range vs {
		if v.Rule != "scoreboard" {
			t.Fatalf("violation rule = %q, want scoreboard (%v)", v.Rule, v)
		}
	}
	if s := vs[0].String(); s == "" || s == vs[0].Detail {
		t.Fatalf("violation String() lost context: %q", s)
	}
}
