package mem

import (
	"testing"

	"repro/internal/config"
)

// exercise drives a small deterministic access mix so every piece of
// hierarchy state (tags, LRU, MSHRs, both channels) is non-trivial.
func exercise(h *Hierarchy, from, to int64) {
	sms := len(h.l1)
	for now := from; now < to; now++ {
		addr := uint64(now*128) % (1 << 22)
		h.AccessGlobal(int(now)%sms, addr, now%7 == 0, now)
		if now%3 == 0 {
			h.AccessGlobal(0, addr^0x5000, false, now)
		}
	}
}

func TestAuditCatchesSeededMSHRCorruption(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	h := NewHierarchy(cfg)
	exercise(h, 0, 100)
	h.Retire(100)
	if vs := h.Audit(100); len(vs) != 0 {
		t.Fatalf("healthy hierarchy reported %v", vs)
	}
	h.CorruptMSHRForTest(100)
	vs := h.Audit(100)
	if len(vs) == 0 {
		t.Fatal("seeded MSHR inconsistency not detected")
	}
	if vs[0].Rule != "mshr" {
		t.Fatalf("violation rule = %q, want mshr (%v)", vs[0].Rule, vs[0])
	}
}

func TestAuditCatchesChannelCorruption(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	h := NewHierarchy(cfg)
	h.drch.fracPending = -3
	vs := h.Audit(0)
	found := false
	for _, v := range vs {
		if v.Rule == "channel" {
			found = true
		}
	}
	if !found {
		t.Fatalf("negative fractional backlog not detected: %v", vs)
	}
}
