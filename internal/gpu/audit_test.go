package gpu

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
)

// auditApp is a three-kernel application exercising every state family
// the auditor's conservation laws cover: global/shared memory in flight,
// barriers, FMA chains, multiple blocks per SM.
func auditApp() []*Kernel {
	memB := program.NewBuilder()
	memB.Loop(48, func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 20, StrideBytes: 4})
		lb.FMA(5, 4, 4, 5)
		lb.LDS(6, 5, isa.MemTrait{Footprint: 1 << 12, StrideBytes: 4})
		lb.FMA(7, 6, 6, 7)
	})
	memP := memB.MustBuild()
	barP := fmaThenBarProgram(64, 2)
	fmaP := fmaProgram(128, 2)
	return []*Kernel{
		{Name: "mem", Blocks: 4, WarpsPerBlock: 8, RegsPerThread: 16,
			WarpProgram: func(b, w int) *program.Program { return memP }},
		{Name: "bar", Blocks: 2, WarpsPerBlock: 16, RegsPerThread: 16, SharedMemPerBlock: 4096,
			WarpProgram: func(b, w int) *program.Program { return barP }},
		{Name: "fma", Blocks: 3, WarpsPerBlock: 8, RegsPerThread: 8,
			WarpProgram: func(b, w int) *program.Program { return fmaP }},
	}
}

// runJSON canonicalizes a run's statistics for byte-equality checks.
func runJSON(t *testing.T, g *GPU) []byte {
	t.Helper()
	j, err := json.Marshal(g.Run())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestAuditedRunIsCleanAndUnperturbed(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 2
	ks := auditApp()

	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.RunKernels(ks, 0); err != nil {
		t.Fatal(err)
	}

	audited, err := New(cfg.WithAudit(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := audited.RunKernels(ks, 0); err != nil {
		t.Fatalf("audited run faulted: %v", err)
	}
	if !bytes.Equal(runJSON(t, plain), runJSON(t, audited)) {
		t.Fatal("arming the auditor changed the simulation results")
	}
}

func TestAuditCatchesArmedCorruption(t *testing.T) {
	for _, tc := range []struct{ kind, rule string }{
		{"scoreboard", "scoreboard"},
		{"lease", "lease"},
		{"mshr", "mshr"},
		{"readyset", "readyset"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			cfg := config.VoltaV100()
			cfg.NumSMs = 1
			g, err := New(cfg.WithAudit(1))
			if err != nil {
				t.Fatal(err)
			}
			g.ArmCorruptionForTest(tc.kind)
			err = g.RunKernels(auditApp(), 0)
			var ae *AuditError
			if !errors.As(err, &ae) {
				t.Fatalf("corrupted run returned %v, want *AuditError", err)
			}
			found := false
			for _, v := range ae.Violations {
				if v.Rule == tc.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %q violation in %v", tc.rule, ae.Violations)
			}
			if ae.Cycle == 0 || ae.Error() == "" {
				t.Fatalf("fault lost context: %v", ae)
			}
		})
	}
}

// BenchmarkAuditOverhead quantifies the auditor's cost: disabled it is
// one comparison per heartbeat; enabled it re-derives every conservation
// law each audit period. docs/ROBUSTNESS.md records the measured ratio.
func BenchmarkAuditOverhead(b *testing.B) {
	for _, tc := range []struct {
		name  string
		every int64
	}{
		{"disabled", 0},
		{"enabled-4k", 4096},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := config.VoltaV100()
			cfg.NumSMs = 1
			cfg.AuditEvery = tc.every
			p := fmaProgram(256, 2)
			for i := 0; i < b.N; i++ {
				g, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				k := &Kernel{Name: "bench", Blocks: 4, WarpsPerBlock: 16, RegsPerThread: 8,
					WarpProgram: func(bk, w int) *program.Program { return p }}
				if err := g.RunKernel(k, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
