package analysis

import (
	"go/ast"
	"strings"
)

// Clocktaint is the value-level half of the determinism contract. The
// determinism analyzer asks "does deterministic code *call* time.Now
// or the global math/rand?"; this one asks the finer question the
// dataflow engine (dataflow.go) makes answerable: "does a value
// *derived* from those sources reach state the reproduction's numbers
// rest on?" — a field of a struct declared in a simulation package
// (the determinism analyzer's scope: two identical runs would diverge
// byte-for-byte), a stats-package counter (exported tables would stop
// being bit-deterministic), or a NextEvent result (fast-forward would
// skip to a wall-clock-dependent cycle).
//
// Wall-clock reads outside those sinks are legitimate — the harness
// times cells with them — which is exactly why the call-level pass
// scopes itself to simulation packages and this pass instead follows
// the values: a time.Since in the harness is fine until its result is
// laundered, through locals, helper returns, and arguments, into
// simulation or aggregated state.
//
// Each finding carries the full value-flow chain from the source call
// to the sink store, hop by hop, so the propagation can be audited at
// the report. The engine's conservative bounds apply (see dataflow.go:
// aliasing of locals is out of model, taint never dies).
var Clocktaint = &Analyzer{
	Name: "clocktaint",
	Doc: "flag values derived from time.Now/time.Since or the global " +
		"math/rand stream that reach a simulation-state field, a stats " +
		"counter, or a NextEvent result — value-level determinism holes " +
		"the call-level pass cannot see",
	RunProgram: runClocktaint,
}

// clocktaintStatsScope matches the aggregation packages whose struct
// fields count as sinks ("repro/internal/stats" and fixture "stats"
// sub-packages alike).
var clocktaintStatsScope = []string{"stats"}

// clockSource classifies taint origins, mirroring the determinism
// analyzer's primitive set: time.Now/time.Since and the process-global
// math/rand functions. Methods on a seeded *rand.Rand and the
// rand.New/NewSource constructors are the sanctioned alternative and
// are not sources.
func clockSource(pkg *Package, n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := funcFor(pkg.Info, call)
	if fn == nil {
		return "", false
	}
	switch {
	case fromPkg(fn, "time") && (fn.Name() == "Now" || fn.Name() == "Since"):
		return "time." + fn.Name(), true
	case fromPkg(fn, "math/rand") || fromPkg(fn, "math/rand/v2"):
		if recvNamed(fn) != "" || fn.Name() == "New" || fn.Name() == "NewSource" {
			return "", false
		}
		return "math/rand." + fn.Name(), true
	}
	return "", false
}

func runClocktaint(pp *ProgramPass) error {
	d := RunDataflow(pp.Prog, TaintSpec{Source: clockSource})
	simPkgs := map[string]bool{}
	for _, pkg := range pp.Prog.Pkgs {
		if determinismInScope(pkg) {
			simPkgs[pkg.Path] = true
		}
	}

	for _, ft := range d.FieldTaints {
		sf := ft.Field
		dot := strings.LastIndexByte(sf.owner, '.')
		ownerPkg, short := sf.owner[:dot], sf.owner[dot+1:]
		switch {
		case pathIn(ownerPkg, clocktaintStatsScope):
			pp.ReportChainf(ft.Pkg, ft.Pos, ft.Flow.Chain(),
				"wall-clock/rand-derived value stored into stats field %s.%s (%s) — aggregated results must be bit-deterministic across identical runs; derive the value from simulated cycles, or justify with //simlint:allow clocktaint",
				short, sf.field, ft.Flow.Chain())
		case simPkgs[ownerPkg]:
			pp.ReportChainf(ft.Pkg, ft.Pos, ft.Flow.Chain(),
				"wall-clock/rand-derived value stored into simulation-state field %s.%s (%s) — simulation state must be cycle-derived or two identical runs diverge; derive the value from simulated cycles, or justify with //simlint:allow clocktaint",
				short, sf.field, ft.Flow.Chain())
		}
	}

	for _, rt := range d.ReturnTaints {
		if rt.Node.Fn == nil {
			continue
		}
		if name := rt.Node.Fn.Name(); name != "NextEvent" && name != "nextEvent" {
			continue
		}
		pp.ReportChainf(rt.Pkg, rt.Pos, rt.Flow.Chain(),
			"%s returns a wall-clock/rand-derived value (%s) — fast-forward would skip to a cycle that depends on the host clock, breaking run-to-run equivalence; compute the wake-up cycle from simulated state, or justify with //simlint:allow clocktaint",
			rt.Node.Name, rt.Flow.Chain())
	}
	return nil
}
