package analysis

import (
	"testing"
	"time"
)

// BenchmarkSimlint measures a whole-module analysis pass — load,
// type-check, all nine analyzers — the same work `go run ./cmd/simlint
// ./...` performs. CI runs it once as a smoke with a wall-clock budget
// (see .github/workflows/ci.yml); the point is to keep the linter cheap
// enough to sit in the tier-1 gate.
func BenchmarkSimlint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := Load("repro/...")
		if err != nil {
			b.Fatalf("Load: %v", err)
		}
		diags, err := RunAnalyzers(pkgs, All)
		if err != nil {
			b.Fatalf("RunAnalyzers: %v", err)
		}
		if len(diags) != 0 {
			b.Fatalf("tree is not simlint-clean: %v", diags[0])
		}
	}
}

// BenchmarkDataflow isolates the value-flow engine: one whole-module
// taint closure under the clock-source spec, loader cost excluded. This
// is the part of the v3 suite that scales with program size (fixpoint
// passes over every function body), so it gets its own number.
func BenchmarkDataflow(b *testing.B) {
	pkgs, err := Load("repro/...")
	if err != nil {
		b.Fatalf("Load: %v", err)
	}
	prog := NewProgram(pkgs)
	prog.CallGraph() // build outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := RunDataflow(prog, TaintSpec{Source: clockSource})
		if d == nil {
			b.Fatal("RunDataflow returned nil")
		}
	}
}

// simlintBudget is the CI wall-clock ceiling for one whole-module pass
// of the full suite. The budget is generous on purpose: the gate exists
// to catch an accidental fixpoint blow-up (a dataflow pass going
// superlinear), not to tune constants.
const simlintBudget = 30 * time.Second

// TestSimlintBudget asserts the whole-module nine-analyzer pass fits
// the CI budget, and logs the measured time so regressions are visible
// in test output before they ever trip the ceiling.
func TestSimlintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	start := time.Now()
	pkgs, err := Load("repro/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	loaded := time.Now()
	if _, err := RunAnalyzers(pkgs, All); err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	analyzed := time.Now()
	t.Logf("whole-module simlint pass: load %v, analyze %v, total %v (budget %v)",
		loaded.Sub(start).Round(time.Millisecond),
		analyzed.Sub(loaded).Round(time.Millisecond),
		analyzed.Sub(start).Round(time.Millisecond), simlintBudget)
	if total := analyzed.Sub(start); total > simlintBudget {
		t.Fatalf("whole-module simlint pass took %v, over the %v CI budget", total, simlintBudget)
	}
}
