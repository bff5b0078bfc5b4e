// Package analysis is simlint's self-contained static-analysis
// framework: a small go/ast + go/types pass runner in the style of
// golang.org/x/tools/go/analysis, implemented on the standard library
// only so the linter builds offline with zero dependencies.
//
// The suite enforces the invariants the reproduction's headline numbers
// rest on — bit-deterministic sweeps, an allocation-free cycle loop,
// nil-guarded trace emission, structured fault propagation,
// hang-supervision polling, and CPI-stack wiring — at the source
// level, where review and dynamic tests alone cannot keep up with the
// tree. Each analyzer's rationale is documented in
// docs/STATIC_ANALYSIS.md.
//
// Three comment directives tune the suite:
//
//	//simlint:hotpath
//	    on a function's doc comment marks it per-cycle, opting it into
//	    the hotpath analyzer even when its name does not match the
//	    hot-name pattern.
//
//	//simlint:cold
//	    on a function's doc comment marks it off the per-cycle path,
//	    stopping the hotpath analyzer's descent into it.
//
//	//simlint:allow <analyzer>[,<analyzer>...] -- <reason>
//	    suppresses findings. On its own line (or trailing the offending
//	    line) it covers that line and the next; inside a function's doc
//	    comment it covers the whole function. The "-- reason" tail is
//	    required by convention so every suppression is justified in
//	    place.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named pass, either per-package (Run) or whole-program
// (RunProgram, which sees every loaded package plus the call graph).
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and in
	// //simlint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports findings on the pass's package via Pass.Reportf.
	Run func(*Pass) error
	// RunProgram, when set, runs once over the whole loaded program
	// instead of once per package; Run is ignored. Interprocedural
	// analyzers live here: ProgramPass.Prog.CallGraph() is the shared,
	// lazily built call graph.
	RunProgram func(*ProgramPass) error
}

// All is the registry of simlint's analyzers, in report order.
var All = []*Analyzer{Determinism, Hotpath, Traceguard, Faultflow, Monitorpoll, Cpiguard, Clocktaint, Configfreeze, Goroutineshare}

// ByName resolves a subset of All from comma-separated names.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no analyzers selected")
	}
	return out, nil
}

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Chain is the call chain an interprocedural finding was discovered
	// through ("issueTick → tryIssue → helper"); empty for direct
	// findings. The chain is already part of Message for human output —
	// this field carries it structured for -json consumers.
	Chain string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Fset returns the package's file set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Info returns the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// WithStack walks every file of the pass's package, calling fn with each
// node and the stack of its ancestors (stack[0] is the *ast.File,
// stack[len-1] is n itself). Returning false prunes the subtree.
func (p *Pass) WithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !fn(n, stack) {
				// Pruned subtrees get no closing nil from Inspect; pop now.
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}

// ProgramPass is one program-level analyzer's view of every loaded
// package plus the shared call graph.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	diags    []Diagnostic
}

// Reportf records a finding at pos, which must belong to pkg's file set.
func (pp *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	pp.diags = append(pp.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: pp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportChainf records an interprocedural finding with its discovery
// chain (the chain should also appear in the formatted message; this
// keeps it structured for -json output).
func (pp *ProgramPass) ReportChainf(pkg *Package, pos token.Pos, chain, format string, args ...any) {
	pp.diags = append(pp.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: pp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// RunAnalyzers runs the analyzers over the packages, drops suppressed
// findings (//simlint:allow), and returns the rest sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runAnalyzers(pkgs, analyzers, false)
}

// RunAnalyzersStrict additionally reports, as findings of the pseudo-
// analyzer "allow", every //simlint:allow directive that suppressed
// nothing — a stale suppression is a waived rule nobody is breaking,
// and deleting it restores coverage. Only meaningful when the named
// analyzers actually run: directives for analyzers outside the
// selection are never reported stale.
func RunAnalyzersStrict(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runAnalyzers(pkgs, analyzers, true)
}

func runAnalyzers(pkgs []*Package, analyzers []*Analyzer, strict bool) ([]Diagnostic, error) {
	sup := buildSuppressions(pkgs)
	prog := NewProgram(pkgs)
	ran := map[string]bool{}
	var out []Diagnostic
	keep := func(diags []Diagnostic) {
		for _, d := range diags {
			if !sup.suppressed(d.Analyzer, d.Pos) {
				out = append(out, d)
			}
		}
	}
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.RunProgram != nil {
			pp := &ProgramPass{Analyzer: a, Prog: prog}
			if err := a.RunProgram(pp); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
			keep(pp.diags)
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			keep(pass.diags)
		}
	}
	// A waiver without its justification is rejected outright (not just
	// under -strict-allow): the "-- reason" tail is the audit trail the
	// whole suppression scheme exists for. One report per comment, even
	// when it names several analyzers.
	reasonless := map[token.Position]bool{}
	for _, d := range sup.directives {
		if ran[d.name] && d.reason == "" && !reasonless[d.pos] {
			reasonless[d.pos] = true
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Analyzer: "allow",
				Message:  `//simlint:allow without a reason: append " -- <why>" so the waiver carries its justification`,
			})
		}
	}
	if strict {
		for _, d := range sup.directives {
			if ran[d.name] && !d.used {
				out = append(out, Diagnostic{
					Pos:      d.pos,
					Analyzer: "allow",
					Message: fmt.Sprintf("stale //simlint:allow %s: no %s finding fires here any more; delete the suppression",
						d.name, d.name),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// pathIn reports whether pkgPath matches one of the scope suffixes
// ("internal/gpu" matches both "repro/internal/gpu" and a fixture that
// re-creates it).
func pathIn(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// funcFor resolves a call expression's callee as a *types.Func, nil for
// builtins, conversions, and calls through function-typed values.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isBuiltin reports whether the call is to the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// recvNamed returns the name of a method's receiver type (dereferenced),
// "" for non-methods.
func recvNamed(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// fromPkg reports whether f is declared in a package whose import path
// is pkgPath or ends in "/"+pkgPath.
func fromPkg(f *types.Func, pkgPath string) bool {
	return f != nil && f.Pkg() != nil &&
		(f.Pkg().Path() == pkgPath || strings.HasSuffix(f.Pkg().Path(), "/"+pkgPath))
}

// endsInPanic reports whether the block's last statement is a call to
// the panic builtin — the marker of a cold invariant-violation branch.
func endsInPanic(info *types.Info, b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && isBuiltin(info, call, "panic")
}
