package mem

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/snapshot"
)

// TestSnapshotCoverage fails when a state struct gains a field the
// snapshot code does not mention — the dynamic side of the snapshotguard
// analyzer's contract.
func TestSnapshotCoverage(t *testing.T) {
	cases := []struct {
		typ      reflect.Type
		manifest map[string]string
	}{
		{reflect.TypeOf(Hierarchy{}), hierarchyManifest},
		{reflect.TypeOf(Cache{}), cacheManifest},
		{reflect.TypeOf(mshr{}), mshrManifest},
		{reflect.TypeOf(bwChannel{}), bwChannelManifest},
	}
	for _, c := range cases {
		if err := snapshot.Coverage(c.typ, c.manifest); err != nil {
			t.Errorf("%s: %v", c.typ.Name(), err)
		}
	}
}

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

func TestHierarchyRoundTrip(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	a := NewHierarchy(cfg)
	exercise(a, 0, 500)

	e := snapshot.NewEncoder()
	a.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}

	b := NewHierarchy(cfg)
	d, err := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(d); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("decoder Finish: %v", err)
	}

	// The restored hierarchy must behave identically: same completion
	// cycles, same hit counters, same outstanding fills.
	exercise(a, 500, 900)
	exercise(b, 500, 900)
	for now := int64(900); now < 950; now++ {
		ca := a.AccessGlobal(0, uint64(now*64), false, now)
		cb := b.AccessGlobal(0, uint64(now*64), false, now)
		if ca != cb {
			t.Fatalf("cycle %d: completion %d vs %d after restore", now, ca, cb)
		}
	}
	if a.l2.Hits != b.l2.Hits || a.l2.Misses != b.l2.Misses {
		t.Fatalf("L2 counters diverged: %d/%d vs %d/%d", a.l2.Hits, a.l2.Misses, b.l2.Hits, b.l2.Misses)
	}
	const now = 950
	a.Retire(now)
	b.Retire(now)
	for i := range a.l1m {
		if !reflect.DeepEqual(a.l1m[i].pending, b.l1m[i].pending) {
			t.Fatalf("l1m[%d] pending fills diverged after restore", i)
		}
	}
	if !reflect.DeepEqual(a.l2m.pending, b.l2m.pending) {
		t.Fatal("l2m pending fills diverged after restore")
	}
	if va, vb := a.Audit(now), b.Audit(now); len(va) != 0 || len(vb) != 0 {
		t.Fatalf("audit violations on healthy hierarchies: %v / %v", va, vb)
	}
}

func TestHierarchyRestoreShapeMismatch(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	a := NewHierarchy(cfg)
	e := snapshot.NewEncoder()
	a.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.NumSMs = 4
	b := NewHierarchy(other)
	d, err := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(d); err == nil {
		t.Fatal("restore into a 4-SM hierarchy from a 2-SM snapshot succeeded")
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
