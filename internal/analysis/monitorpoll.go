package analysis

import (
	"go/ast"
	"go/types"
)

// pollsMonitor reports whether fn is a gpu.Monitor method.
func pollsMonitor(fn *types.Func) bool {
	return fn != nil && recvNamed(fn) == "Monitor" && fromPkg(fn, "internal/gpu")
}

// Monitorpoll enforces the hang-supervision contract from PR 2: a cycle
// loop — an unbounded `for` that drives the device by calling a Tick
// method — must poll the gpu.Monitor heartbeat/cancel channel, or the
// watchdog and wall-clock timeout that make 112-app sweeps survivable
// are silently bypassed (a livelocked cell would then burn its full
// cycle cap instead of dying in wall-clock time). Range loops over SMs
// inside a supervised loop are fine; the rule binds the outermost
// free-running loop. Polling through one level of same-package helper
// (a heartbeat method whose body does the Monitor call) counts: the
// audit work shares the beat, and factoring it out must not force a
// suppression.
var Monitorpoll = &Analyzer{
	Name: "monitorpoll",
	Doc: "flag unbounded cycle loops that call .Tick but never poll " +
		"gpu.Monitor (heartbeat publish + cancellation check), " +
		"directly or via a same-package helper",
	Run: runMonitorpoll,
}

func runMonitorpoll(p *Pass) error {
	info := p.Info()
	// First pass: same-package functions whose own bodies poll the
	// Monitor. A loop calling one of these is supervised transitively.
	pollers := map[*types.Func]bool{}
	for _, f := range p.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := funcFor(info, call); pollsMonitor(callee) {
					pollers[fn] = true
					return false
				}
				return true
			})
		}
	}
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			fs, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			ticks := false
			polls := false
			ast.Inspect(fs.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcFor(info, call)
				if fn == nil {
					return true
				}
				if fn.Name() == "Tick" && recvNamed(fn) != "" {
					ticks = true
				}
				if pollsMonitor(fn) || pollers[fn] {
					polls = true
				}
				return true
			})
			if ticks && !polls {
				p.Reportf(fs.Pos(), "cycle loop drives .Tick but never polls gpu.Monitor: without a periodic Monitor heartbeat/cancel check the harness watchdog and timeout cannot stop this loop")
			}
			// Nested loops are visited by the outer Inspect already.
			return true
		})
	}
	return nil
}
