package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Configfreeze pins the configuration-immutability contract: the
// auditor, fast-forward, and CPI accounting all assume the config a
// component captured at construction never changes underneath it, and
// a run's statistics are only reproducible from the config it was
// labelled with if that config stayed fixed. So config values may be
// built up freely *before* construction — `cfg := config.VoltaV100();
// cfg.NumSMs = 4` in a main, a With* option method mutating its value
// receiver — but once a pointer into a live config exists, every write
// through it is a frozen-state violation.
//
// The rule, statically: a write to a field of a config-package struct
// (any named struct declared in a package whose base name is "config")
// is allowed only when it goes directly through a function-local,
// non-pointer config value — Go's value semantics make such writes
// invisible to everyone else. Flagged forms:
//
//   - writes through a *config.GPU pointer (p.NumSMs = 4): the pointee
//     is shared state — smcore holds &g.cfg for the simulation's
//     lifetime;
//   - writes into a config embedded in another struct (g.cfg.Audit =
//     true): that is the live copy components read;
//   - writes to package-level config values: shared by definition;
//   - whole-struct replacement of an embedded or pointed-to config
//     (d.cfg = other, *p = other).
//
// Functions declared in config packages themselves and constructors
// (New*/new*) are exempt — they run before the config is live. When
// the engine's taint pass can show where the offending pointer was
// obtained (&cfg escaping into a struct field, an alias chain of
// pointer copies), the finding carries that value-flow chain.
var Configfreeze = &Analyzer{
	Name: "configfreeze",
	Doc: "flag writes into config-package structs after construction — " +
		"through pointers, into configs embedded in live state, or to " +
		"package-level config values; config is frozen once gpu.New " +
		"copies it, and every component's captured view depends on that",
	RunProgram: runConfigfreeze,
}

// configNamed returns the named config-package struct type behind t
// (derefencing one pointer level), nil when t is not one.
func configNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	path := n.Obj().Pkg().Path()
	if path == "config" || strings.HasSuffix(path, "/config") {
		return n
	}
	return nil
}

// configPkg reports whether the package's base name is "config" — its
// own declarations (constructors, option methods, Validate) may write
// config fields.
func configPkg(path string) bool {
	return path == "config" || strings.HasSuffix(path, "/config")
}

// configExemptFunc reports whether writes inside the declaration are
// construction-time by role: constructors build the config before it
// is live.
func configExemptFunc(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

// cfreeze lazily runs the dataflow engine with "&<config value>" as
// the source, so violation reports can show where the pointer being
// written through was obtained. Lazy because a clean tree (the normal
// case) then never pays for the taint pass.
type cfreeze struct {
	prog *Program
	d    *Dataflow
}

func (c *cfreeze) dataflow() *Dataflow {
	if c.d == nil {
		c.d = RunDataflow(c.prog, TaintSpec{Source: func(pkg *Package, n ast.Node) (string, bool) {
			u, ok := n.(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return "", false
			}
			if named := configNamed(pkg.Info.TypeOf(u.X)); named != nil {
				return "&" + named.Obj().Name() + " (config address taken)", true
			}
			return "", false
		}})
	}
	return c.d
}

// chainFor renders the value-flow chain that delivered the written-
// through base expression, "" when the engine has none.
func (c *cfreeze) chainFor(pkg *Package, base ast.Expr) string {
	switch b := ast.Unparen(base).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[b]; obj != nil {
			if fl := c.dataflow().VarFlow(obj); fl != nil {
				return fl.Chain()
			}
		}
	case *ast.SelectorExpr:
		if sf, ok := fieldKeyOf(pkg.Info, b); ok {
			if fl := c.dataflow().FieldFlow(sf); fl != nil {
				return fl.Chain()
			}
		}
	case *ast.StarExpr:
		return c.chainFor(pkg, b.X)
	}
	return ""
}

// localConfigValue reports whether e is a plain identifier denoting a
// function-local (or parameter/receiver), non-field variable holding a
// config struct *by value* — the one write target Go's value
// semantics make private.
func localConfigValue(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if _, isPtr := v.Type().(*types.Pointer); isPtr {
		return false
	}
	if configNamed(v.Type()) == nil {
		return false
	}
	// Package-level variables have the package scope as parent.
	return v.Pkg() == nil || v.Parent() != v.Pkg().Scope()
}

func runConfigfreeze(pp *ProgramPass) error {
	c := &cfreeze{prog: pp.Prog}
	report := func(pkg *Package, pos token.Pos, base ast.Expr, format string, args ...any) {
		if chain := c.chainFor(pkg, base); chain != "" {
			pp.ReportChainf(pkg, pos, chain, format+"; the written-through config was obtained via %s", append(args, chain)...)
			return
		}
		pp.Reportf(pkg, pos, format, args...)
	}
	checkFieldWrite := func(pkg *Package, sel *ast.SelectorExpr, verb string) {
		sf, ok := fieldKeyOf(pkg.Info, sel)
		if !ok || !configPkg(sf.owner[:strings.LastIndexByte(sf.owner, '.')]) {
			return
		}
		if localConfigValue(pkg.Info, sel.X) {
			return // building a private value copy: pre-construction idiom
		}
		short := sf.owner[strings.LastIndexByte(sf.owner, '.')+1:]
		report(pkg, sel.Sel.Pos(), sel.X,
			"config field %s.%s %s outside a constructor/option func — config is frozen after construction (every component's captured view depends on it); build the value before gpu.New or add an option method in the config package, or justify with //simlint:allow configfreeze",
			short, sf.field, verb)
	}
	for _, pkg := range pp.Prog.Pkgs {
		if configPkg(pkg.Path) {
			continue // the type's own package: constructors and options live here
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || configExemptFunc(fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if n.Tok == token.DEFINE {
							return true // := declares fresh locals, never writes shared state
						}
						for _, lhs := range n.Lhs {
							l := ast.Unparen(lhs)
							if sel, ok := l.(*ast.SelectorExpr); ok {
								checkFieldWrite(pkg, sel, "written")
								// Whole-struct replacement of an embedded config
								// (d.cfg = other) — the field's owner is not a
								// config struct, so checkFieldWrite won't see it.
								if sf, ok := fieldKeyOf(pkg.Info, sel); ok &&
									!configPkg(sf.owner[:strings.LastIndexByte(sf.owner, '.')]) &&
									configNamed(pkg.Info.TypeOf(sel)) != nil {
									report(pkg, sel.Sel.Pos(), sel.X,
										"whole config value %s.%s replaced outside a constructor/option func — every component captured the original at construction; construct a new GPU instead, or justify with //simlint:allow configfreeze",
										sf.owner[strings.LastIndexByte(sf.owner, '.')+1:], sf.field)
								}
								continue
							}
							if st, ok := l.(*ast.StarExpr); ok && configNamed(pkg.Info.TypeOf(st.X)) != nil {
								report(pkg, st.Pos(), st.X,
									"config value replaced through a pointer outside a constructor/option func — the pointee is the live, frozen config; construct a new GPU instead, or justify with //simlint:allow configfreeze")
								continue
							}
							// Package-level config value reassigned wholesale.
							if id, ok := l.(*ast.Ident); ok && configNamed(pkg.Info.TypeOf(id)) != nil && !localConfigValue(pkg.Info, id) {
								report(pkg, id.Pos(), id,
									"package-level config value %s replaced outside a constructor/option func — it is shared by everything that captured it; build configs as function-local values, or justify with //simlint:allow configfreeze", id.Name)
							}
						}
					case *ast.IncDecStmt:
						if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
							checkFieldWrite(pkg, sel, "incremented")
						}
					}
					return true
				})
			}
		}
	}
	return nil
}
