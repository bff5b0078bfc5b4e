package regfile

import (
	"testing"

	"repro/internal/isa"
)

// loadCollector stages a deterministic mix of instructions, writes, and
// partial grants so every piece of collector state is non-trivial.
func loadCollector(c *Collector, ticks int) {
	denyMem := func(u *CollectorUnit) bool { return u.Instr.Op.UnitOf() != isa.ClassMEM }
	next := 0
	for i := 0; i < ticks; i++ {
		if cu := c.FreeCU(); cu >= 0 && i%2 == 0 {
			in := isa.MakeFMA(isa.Reg(next), isa.Reg(next+1), isa.Reg(next+2), isa.Reg(next+3))
			if next%3 == 0 {
				in = isa.MakeLoad(isa.OpLDG, isa.Reg(next), isa.Reg(next+1), isa.MemTrait{Pattern: isa.PatCoalesced})
			}
			c.Allocate(cu, int32(next), int32(next%4), in, next%2, false)
			next++
		}
		if i%3 == 0 {
			c.EnqueueWrite(WriteReq{WarpIdx: int32(i), Reg: isa.Reg(i % 8), Bank: int8(i % c.banks)})
		}
		c.Tick(denyMem)
	}
}

func TestAuditCatchesSeededLeaseCorruption(t *testing.T) {
	c := NewCollector(2, 2, 0, nil)
	loadCollector(c, 7)
	if vs := c.Audit("t"); len(vs) != 0 {
		t.Fatalf("healthy collector reported %v", vs)
	}
	c.CorruptLeaseForTest()
	vs := c.Audit("t")
	if len(vs) == 0 {
		t.Fatal("seeded lease inconsistency not detected")
	}
	if vs[0].Rule != "lease" {
		t.Fatalf("violation rule = %q, want lease (%v)", vs[0].Rule, vs[0])
	}
}
