package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Cpiguard is the static half of the top-down CPI-stack identity
// (docs/METHODOLOGY.md): per SM × sub-core, the CPI components must sum
// bit-exactly to elapsed cycles, which CheckCPI verifies dynamically at
// the end of every run. The identity only holds while three wiring
// invariants do, and each has historically silent failure modes this
// analyzer pins at the source level:
//
//   - every CPIComponent constant must be assigned in (*SubCore).CPI —
//     an unassigned component is a term silently dropped from the sum;
//   - every StallReason constant must either be consulted in CPI
//     (s.StallCycles[Reason]) or carry an "event:" entry in the
//     cpiLedger explaining why its cycles are charged elsewhere;
//   - every field of the SubCore counter struct must be classified in a
//     package-level cpiLedger map — "cycle..." for counters that feed
//     the stack (and must therefore be read in CPI), "event: <reason>"
//     for occurrence counters outside the cycle identity. Program-wide,
//     any site that mutates an unclassified SubCore field is flagged:
//     a counter bumped at an issue-attribution site in internal/smcore
//     but absent from the ledger is exactly how the stack drifts out of
//     the cycles identity between dynamic checks.
//
// The analyzer activates in any package declaring a SubCore struct with
// a CPI method (internal/stats, and its golden fixture); elsewhere it
// is inert.
var Cpiguard = &Analyzer{
	Name: "cpiguard",
	Doc: "flag CPI-stack wiring drift: CPIComponent constants never " +
		"assigned in (*SubCore).CPI, StallReason constants neither " +
		"consulted nor event-ledgered, SubCore counter fields missing " +
		"from the cpiLedger, and mutations of unclassified counters " +
		"anywhere in the program",
	RunProgram: runCpiguard,
}

// cpiTarget is one package that declares the CPI accounting shape.
type cpiTarget struct {
	pkg    *Package
	ledger map[string]string // field or reason name -> classification
}

func runCpiguard(pp *ProgramPass) error {
	var targets []*cpiTarget
	for _, pkg := range pp.Prog.Pkgs {
		if t := checkCPIPackage(pp, pkg); t != nil {
			targets = append(targets, t)
		}
	}
	for _, t := range targets {
		checkCPIMutations(pp, t)
	}
	return nil
}

// checkCPIPackage runs the ledger checks if pkg declares SubCore with a
// CPI method, returning the target for the program-wide mutation scan.
func checkCPIPackage(pp *ProgramPass, pkg *Package) *cpiTarget {
	var subCore *ast.StructType
	var subCorePos token.Pos
	var cpiDecl *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "SubCore" {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						subCore, subCorePos = st, ts.Pos()
					}
				}
			case *ast.FuncDecl:
				if d.Name.Name != "CPI" || d.Recv == nil || d.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok && recvNamed(fn) == "SubCore" {
					cpiDecl = d
				}
			}
		}
	}
	if subCore == nil || cpiDecl == nil {
		return nil
	}

	// What CPI() actually wires in.
	assigned := map[string]bool{}  // CPIComponent constants written as c[X]
	consulted := map[string]bool{} // StallReason constants read as .StallCycles[R]
	readFields := map[string]bool{}
	ast.Inspect(cpiDecl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if name, ok := constOf(pkg.Info, ix.Index, "CPIComponent"); ok {
						assigned[name] = true
					}
				}
			}
		case *ast.IndexExpr:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "StallCycles" {
				if name, ok := constOf(pkg.Info, n.Index, "StallReason"); ok {
					consulted[name] = true
				}
			}
		case *ast.SelectorExpr:
			if fieldOfStruct(pkg.Info, n, pkg.Path, "SubCore") != "" {
				readFields[n.Sel.Name] = true
			}
		}
		return true
	})

	// The ledger.
	ledger := map[string]string{}
	ledgerEntryPos := map[string]token.Pos{}
	var haveLedger bool
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if id.Name != "cpiLedger" || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok || !isMapStringString(cl.Type) {
						continue
					}
					haveLedger = true
					for _, elt := range cl.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := stringLit(kv.Key)
						if !ok {
							continue
						}
						val, valLit := stringLit(kv.Value)
						ledger[key] = val
						ledgerEntryPos[key] = kv.Key.Pos()
						if valLit && !strings.HasPrefix(val, "cycle") && !strings.HasPrefix(val, "event:") {
							pp.Reportf(pkg, kv.Value.Pos(), "cpiLedger[%q] = %q is neither \"cycle...\" nor \"event: <reason>\" — the ledger is a classification, every entry states which", key, val)
						}
					}
				}
			}
		}
	}
	if !haveLedger {
		pp.Reportf(pkg, subCorePos, "type SubCore carries CPI accounting but this package has no cpiLedger — add a package-level cpiLedger map[string]string classifying every counter field as \"cycle...\" (must feed (*SubCore).CPI) or \"event: <reason>\"")
	}

	// Fields: every one classified; cycle-classified ones read in CPI.
	fieldSet := map[string]bool{}
	for _, fld := range subCore.Fields.List {
		for _, id := range fld.Names {
			fieldSet[id.Name] = true
			cls, ok := ledger[id.Name]
			if !ok {
				if haveLedger {
					pp.Reportf(pkg, id.Pos(), "counter field SubCore.%s has no cpiLedger entry — classify it \"cycle...\" (it must then feed (*SubCore).CPI) or \"event: <reason>\"", id.Name)
				}
				continue
			}
			if strings.HasPrefix(cls, "cycle") && !readFields[id.Name] {
				pp.Reportf(pkg, id.Pos(), "counter field SubCore.%s is classified cycle in cpiLedger but never read in (*SubCore).CPI — the stack silently stops accounting for it and the CheckCPI cycles identity can break", id.Name)
			}
		}
	}

	// Constants: components all assigned, reasons consulted or ledgered.
	reasonSet := map[string]bool{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					c, ok := pkg.Info.Defs[id].(*types.Const)
					if !ok {
						continue
					}
					switch namedTypeName(c.Type()) {
					case "CPIComponent":
						if strings.HasPrefix(id.Name, "Num") {
							continue // the array-length sentinel
						}
						if !assigned[id.Name] {
							pp.Reportf(pkg, id.Pos(), "CPI component %s is never assigned in (*SubCore).CPI — a component missing from the stack is a term silently dropped from the CheckCPI sum", id.Name)
						}
					case "StallReason":
						reasonSet[id.Name] = true
						if strings.HasPrefix(id.Name, "Num") {
							continue
						}
						if consulted[id.Name] {
							continue
						}
						if cls, ok := ledger[id.Name]; ok && strings.HasPrefix(cls, "event:") {
							continue
						}
						pp.Reportf(pkg, id.Pos(), "stall reason %s is neither consulted in (*SubCore).CPI (StallCycles[%s]) nor classified \"event:\" in cpiLedger — cycles attributed to it would vanish from the stack", id.Name, id.Name)
					}
				}
			}
		}
	}

	// Stale ledger keys.
	for key, pos := range ledgerEntryPos {
		if !fieldSet[key] && !reasonSet[key] {
			pp.Reportf(pkg, pos, "cpiLedger entry %q names no SubCore field and no StallReason constant — remove the stale entry", key)
		}
	}

	return &cpiTarget{pkg: pkg, ledger: ledger}
}

// checkCPIMutations scans every loaded package for mutations of
// unclassified SubCore fields — the issue-attribution sites in
// internal/smcore are the real audience.
func checkCPIMutations(pp *ProgramPass, t *cpiTarget) {
	for _, pkg := range pp.Prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				default:
					return true
				}
				for _, e := range lhs {
					sel := baseSelector(e)
					if sel == nil {
						continue
					}
					name := fieldOfStruct(pkg.Info, sel, t.pkg.Path, "SubCore")
					if name == "" {
						continue
					}
					if _, ok := t.ledger[name]; !ok {
						pp.Reportf(pkg, sel.Sel.Pos(), "SubCore.%s is mutated here but has no cpiLedger entry — a counter outside the ledger can drift out of the CPI == cycles identity; classify it \"cycle...\" (and wire it into (*SubCore).CPI) or \"event: <reason>\"", name)
					}
				}
				return true
			})
		}
	}
}

// constOf resolves an expression to a constant of the given named type,
// returning its name.
func constOf(info *types.Info, e ast.Expr, typeName string) (string, bool) {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	c, ok := obj.(*types.Const)
	if !ok || namedTypeName(c.Type()) != typeName {
		return "", false
	}
	return c.Name(), true
}

// namedTypeName returns the bare name of a (possibly pointer-wrapped)
// named type, "" otherwise.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// fieldOfStruct returns the field name when sel selects a struct field
// of the named type declared in the package whose path is (or has the
// suffix of) ownerPath; "" otherwise. Matching is by name + path, not
// object identity, so it works across export-data package views.
func fieldOfStruct(info *types.Info, sel *ast.SelectorExpr, ownerPath, typeName string) string {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	recv := s.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Name() != typeName || n.Obj().Pkg() == nil {
		return ""
	}
	p := n.Obj().Pkg().Path()
	if p != ownerPath && !strings.HasSuffix(p, "/"+ownerPath) && !strings.HasSuffix(ownerPath, "/"+p) {
		return ""
	}
	return sel.Sel.Name
}

// baseSelector unwraps index/star/paren expressions to the selector at
// the base of an lvalue: `s.StallCycles[r]` -> `s.StallCycles`.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// stringLit unquotes a basic string literal expression.
func stringLit(expr ast.Expr) (string, bool) {
	bl, ok := ast.Unparen(expr).(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING || len(bl.Value) < 2 {
		return "", false
	}
	// Ledger keys and values are plain double-quoted literals without
	// escapes in practice; an escaped literal just skips the entry.
	if bl.Value[0] == '`' {
		return strings.Trim(bl.Value, "`"), true
	}
	s := bl.Value[1 : len(bl.Value)-1]
	if strings.ContainsRune(s, '\\') {
		return "", false
	}
	return s, true
}

// isMapStringString matches the ast of `map[string]string`.
func isMapStringString(expr ast.Expr) bool {
	mt, ok := expr.(*ast.MapType)
	if !ok {
		return false
	}
	k, ok := mt.Key.(*ast.Ident)
	if !ok || k.Name != "string" {
		return false
	}
	v, ok := mt.Value.(*ast.Ident)
	return ok && v.Name == "string"
}
