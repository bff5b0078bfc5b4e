package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is simlint v3's value-flow engine: an intraprocedural
// def-use/taint propagator over syntax and type information, composed
// with the v2 call graph (callgraph.go) so taint crosses function
// boundaries through arguments and return values. The call-level
// analyzers (determinism, hotpath) ask "is this function reached?";
// the dataflow analyzers built on this engine (clocktaint,
// configfreeze) ask the finer question "does this *value* reach that
// *place?" — a time.Now result laundered through three locals and a
// helper's return value into a simulation-state field is invisible to
// the call-level passes and exactly what this engine tracks.
//
// Like the call graph, the engine is conservative by construction:
// taint over-approximates, it never under-approximates within its
// documented bounds. The transfer rules:
//
//   - An expression is tainted when any sub-expression of it is a
//     source, a use of a tainted variable, a read of a tainted field,
//     or a call whose (loaded) callee may return taint. A call to a
//     loaded callee is tainted only through its results: its arguments
//     flow into the callee's parameters instead, so New(stamp) is clean
//     when New does not return stamp. Conversions,
//     arithmetic, indexing, interface boxing, and calls to *unloaded*
//     callees (stdlib) all launder taint through — `int64(t)`,
//     `fmt.Sprintf("%d", t)`, and `t.UnixNano()` are as tainted as t.
//   - Assignments, short declarations, var specs, and range statements
//     move taint from the right side to every left-side variable.
//     Storing through a pointer, slice, map element, or into a struct
//     field taints the base ("taints everything it touches"): after
//     `m[k] = t`, the whole map m is tainted.
//   - Struct-field stores (selector assignments and composite-literal
//     elements) additionally taint the *field* itself, keyed by
//     (declaring package, struct, field) — field-sensitive but
//     instance-insensitive, so a copy of a struct carries its fields'
//     taint. Every field-tainting store is recorded as a FieldTaint
//     sink event for the analyzers.
//   - At a call whose target body is loaded, tainted arguments taint
//     the callee's parameters (receivers included, variadics folded
//     onto the last parameter); a tainted return expression taints the
//     callee's result at its position, which flows back into the
//     call sites — result-index-sensitively, so a tuple assignment
//     routes result i to lvalue i and a wall-clock duration returned
//     beside a stats struct does not taint the struct. Both directions
//     follow the call graph's statically resolved edges.
//
// Bounds, stated honestly: dispatch through interfaces and
// function-typed values is outside the value-flow model — the call
// graph resolves those sites to every name+signature-compatible
// candidate (right for reachability, ruinous for taint: one tainted
// Stringer receiver would contaminate every .String() in the program),
// so dataflow treats dispatched-only sites like unknown callees and
// applies the pointer-laundering rule instead. Pointer aliasing of
// *fields* is likewise not modeled
// (after p := &s.f, a store *p = t taints p but not the field f —
// take the address of the struct, not the field, or the write escapes
// the engine); taint never dies (no sanitizer kills it), so the
// engine answers reachability, not possibility-on-every-path; and
// function literals are separate call-graph nodes, so taint enters
// them only through captured variables and explicit calls.
//
// Every tainted entity carries a Flow: the source description plus the
// hop-by-hop value chain by which taint arrived, so a diagnostic can
// print `time.Now (pace.go:12) → result of pace.Stamp (clock.go:30) →
// engine.clock` and a reviewer can audit the propagation instead of
// trusting it.

// maxFlowHops caps a Flow's recorded chain. Taint still propagates
// past the cap — only the rendering is truncated, keeping messages
// readable when taint crosses many small helpers.
const maxFlowHops = 24

// maxDataflowPasses bounds the global fixpoint iteration. Taint is
// monotone over a finite entity set, so the loop always terminates on
// its own; the cap is a backstop against a propagation bug turning
// into a hang inside CI's 30-second budget.
const maxDataflowPasses = 64

// FlowHop is one step of a value-flow chain.
type FlowHop struct {
	Pos  token.Pos
	Pkg  *Package
	Desc string
}

// Flow records how taint reached an entity: the originating source and
// the hops (oldest first) the value took.
type Flow struct {
	SrcPos  token.Pos
	SrcPkg  *Package
	SrcDesc string
	Hops    []FlowHop
}

// extend returns a copy of f with one more hop appended.
func (f *Flow) extend(pkg *Package, pos token.Pos, desc string) *Flow {
	nf := &Flow{SrcPos: f.SrcPos, SrcPkg: f.SrcPkg, SrcDesc: f.SrcDesc}
	if len(f.Hops) >= maxFlowHops {
		nf.Hops = f.Hops // truncated: share, don't grow
		return nf
	}
	nf.Hops = make([]FlowHop, len(f.Hops), len(f.Hops)+1)
	copy(nf.Hops, f.Hops)
	nf.Hops = append(nf.Hops, FlowHop{Pos: pos, Pkg: pkg, Desc: desc})
	return nf
}

// Chain renders the flow as "time.Now (pace.go:12) → t (clock.go:30) →
// engine.clock (clock.go:31)" for diagnostics.
func (f *Flow) Chain() string {
	var b strings.Builder
	b.WriteString(f.SrcDesc)
	b.WriteString(" (")
	b.WriteString(shortPos(f.SrcPkg, f.SrcPos))
	b.WriteString(")")
	for _, h := range f.Hops {
		b.WriteString(" → ")
		b.WriteString(h.Desc)
		b.WriteString(" (")
		b.WriteString(shortPos(h.Pkg, h.Pos))
		b.WriteString(")")
	}
	return b.String()
}

// shortPos renders pos as "file.go:12" (base name only).
func shortPos(pkg *Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// TaintSpec configures one engine run.
type TaintSpec struct {
	// Source classifies a node as a taint origin, returning a short
	// description ("time.Now") when it is one.
	Source func(pkg *Package, n ast.Node) (string, bool)
}

// fieldKey identifies one struct field by its declaring package,
// struct name and field name, across package views.
type fieldKey struct {
	owner string // pkgPath + "." + structName
	field string
}

// FieldTaint is one program point where a tainted value is stored into
// a struct field — the engine's sink-event stream, in deterministic
// discovery order.
type FieldTaint struct {
	Field fieldKey
	Pkg   *Package
	Pos   token.Pos
	Flow  *Flow
}

// ReturnTaint is one return statement whose value is tainted.
type ReturnTaint struct {
	Node *CGNode
	Pkg  *Package
	Pos  token.Pos
	Flow *Flow
}

// Dataflow is the engine's result: the taint closure of the program
// under the spec's sources.
type Dataflow struct {
	prog *Program
	g    *CallGraph
	spec TaintSpec

	vars   map[types.Object]*Flow
	fields map[fieldKey]*Flow
	// results is indexed by result position: returning `run, wall, err`
	// with only wall tainted taints index 1 alone, and a tuple
	// assignment at the call site routes result i to lvalue i. Without
	// the index, one wall-clock duration in a result tuple would taint
	// every value returned beside it.
	results map[*CGNode][]*Flow

	// FieldTaints records every field-tainting store, deduplicated by
	// position, in discovery order.
	FieldTaints []FieldTaint
	// ReturnTaints records every tainted return, deduplicated by
	// position, in discovery order.
	ReturnTaints []ReturnTaint

	fieldSeen map[token.Pos]bool
	retSeen   map[token.Pos]bool

	// siteTargets maps each node's call-site positions to the resolved
	// callee nodes, rebuilt from the call graph's edges.
	siteTargets map[*CGNode]map[token.Pos][]*CGNode

	changed bool
}

// VarFlow returns the taint flow that reached obj, nil when untainted.
func (d *Dataflow) VarFlow(obj types.Object) *Flow { return d.vars[obj] }

// FieldFlow returns the taint flow that reached the field, nil when
// untainted.
func (d *Dataflow) FieldFlow(sf fieldKey) *Flow { return d.fields[sf] }

// RunDataflow computes the program's taint closure under spec: seeds
// every source, then iterates the transfer rules to a fixpoint.
func RunDataflow(prog *Program, spec TaintSpec) *Dataflow {
	d := &Dataflow{
		prog:        prog,
		g:           prog.CallGraph(),
		spec:        spec,
		vars:        map[types.Object]*Flow{},
		fields:      map[fieldKey]*Flow{},
		results:     map[*CGNode][]*Flow{},
		fieldSeen:   map[token.Pos]bool{},
		retSeen:     map[token.Pos]bool{},
		siteTargets: map[*CGNode]map[token.Pos][]*CGNode{},
	}
	for _, n := range d.g.Nodes {
		m := map[token.Pos][]*CGNode{}
		for _, e := range n.Out {
			// Dispatched edges (interface / function-value fan-out) stay
			// out of the value-flow model: one tainted receiver would
			// contaminate every name+signature-compatible method in the
			// program. Sites with only dispatched edges degrade to the
			// unknown-callee laundering rule instead.
			if e.Dispatched {
				continue
			}
			m[e.Site] = append(m[e.Site], e.To)
		}
		d.siteTargets[n] = m
	}
	for pass := 0; pass < maxDataflowPasses; pass++ {
		d.changed = false
		for _, n := range d.g.Nodes {
			d.scanNode(n)
		}
		if !d.changed {
			break
		}
	}
	return d
}

// scanNode applies the transfer rules to one function body. Nested
// function literals are their own call-graph nodes and are skipped.
func (d *Dataflow) scanNode(n *CGNode) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			d.transferAssign(n, x)
		case *ast.ValueSpec:
			d.transferValueSpec(n, x)
		case *ast.RangeStmt:
			d.transferRange(n, x)
		case *ast.ReturnStmt:
			d.transferReturn(n, x)
		case *ast.SendStmt:
			if fl := d.exprTaint(n, x.Value); fl != nil {
				d.assignTo(n, x.Chan, fl)
			}
		case *ast.CallExpr:
			d.transferCall(n, x)
		case *ast.CompositeLit:
			d.transferComposite(n, x)
		}
		return true
	})
}

// transferAssign moves taint across `=`, `:=`, and compound
// assignments.
func (d *Dataflow) transferAssign(n *CGNode, as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			if fl := d.exprTaint(n, as.Rhs[i]); fl != nil {
				d.assignTo(n, lhs, fl)
			}
		}
		return
	}
	if len(as.Rhs) == 1 { // tuple: a, b := f()
		if d.routeCallTuple(n, as.Rhs[0], func(i int, fl *Flow) {
			if i < len(as.Lhs) {
				d.assignTo(n, as.Lhs[i], fl)
			}
		}) {
			return
		}
		if fl := d.exprTaint(n, as.Rhs[0]); fl != nil {
			for _, lhs := range as.Lhs {
				d.assignTo(n, lhs, fl)
			}
		}
	}
}

// routeCallTuple handles a tuple assignment from a call with resolved
// callees result-index-sensitively: result i reaches lvalue i only, so
// one tainted value in a return tuple does not smear across its
// neighbors. Reports false for anything else (map/type-assert/receive
// two-value forms, unknown callees) — the caller falls back to the
// whole-expression rule.
func (d *Dataflow) routeCallTuple(n *CGNode, rhs ast.Expr, assign func(i int, fl *Flow)) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	targets := d.siteTargets[n][call.Pos()]
	if len(targets) == 0 {
		return false
	}
	for _, t := range targets {
		for i, fl := range d.results[t] {
			if fl != nil {
				assign(i, fl)
			}
		}
	}
	return true
}

// transferValueSpec moves taint across `var x = expr` declarations.
func (d *Dataflow) transferValueSpec(n *CGNode, vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		return
	}
	if len(vs.Values) == len(vs.Names) {
		for i, id := range vs.Names {
			if fl := d.exprTaint(n, vs.Values[i]); fl != nil {
				d.taintIdent(n, id, fl)
			}
		}
		return
	}
	// var a, b = f()
	if d.routeCallTuple(n, vs.Values[0], func(i int, fl *Flow) {
		if i < len(vs.Names) {
			d.taintIdent(n, vs.Names[i], fl)
		}
	}) {
		return
	}
	if fl := d.exprTaint(n, vs.Values[0]); fl != nil {
		for _, id := range vs.Names {
			d.taintIdent(n, id, fl)
		}
	}
}

// transferRange taints the iteration variables of a range over a
// tainted collection.
func (d *Dataflow) transferRange(n *CGNode, rs *ast.RangeStmt) {
	fl := d.exprTaint(n, rs.X)
	if fl == nil {
		return
	}
	// The key of a slice/array/string range is a position, not data
	// drawn from the collection, so the elements' taint does not reach
	// it. Map keys, range-over-int bounds, and iterator yields are the
	// data and stay tainted.
	keyIsData := true
	if t := n.Pkg.Info.TypeOf(rs.X); t != nil {
		u := t.Underlying()
		if p, ok := u.(*types.Pointer); ok {
			u = p.Elem().Underlying()
		}
		switch u := u.(type) {
		case *types.Slice, *types.Array:
			keyIsData = false
		case *types.Basic:
			keyIsData = u.Info()&types.IsString == 0
		}
	}
	if rs.Key != nil && keyIsData {
		d.assignTo(n, rs.Key, fl)
	}
	if rs.Value != nil {
		d.assignTo(n, rs.Value, fl)
	}
}

// transferReturn taints the node's result positions whose returned
// values are tainted; bare returns consult the named result variables.
func (d *Dataflow) transferReturn(n *CGNode, rs *ast.ReturnStmt) {
	if len(rs.Results) == 0 {
		for i, obj := range d.namedResults(n) {
			if fl := d.vars[obj]; fl != nil {
				d.taintResult(n, i, rs.Pos(), fl)
			}
		}
		return
	}
	if nres := resultCount(n); len(rs.Results) == 1 && nres > 1 {
		// return f(): a multi-result call forwarded whole. Conservative:
		// every position shares the expression's taint.
		if fl := d.exprTaint(n, rs.Results[0]); fl != nil {
			for i := 0; i < nres; i++ {
				d.taintResult(n, i, rs.Pos(), fl)
			}
		}
		return
	}
	for i, e := range rs.Results {
		if fl := d.exprTaint(n, e); fl != nil {
			d.taintResult(n, i, rs.Pos(), fl)
		}
	}
}

// taintResult marks one of the node's result positions tainted and
// records the tainted return site.
func (d *Dataflow) taintResult(n *CGNode, idx int, pos token.Pos, fl *Flow) {
	ext := fl.extend(n.Pkg, pos, "returned by "+n.Name)
	rs := d.results[n]
	if rs == nil {
		rs = make([]*Flow, resultCount(n))
		d.results[n] = rs
	}
	if idx < len(rs) && rs[idx] == nil {
		rs[idx] = ext
		d.changed = true
	}
	if !d.retSeen[pos] {
		d.retSeen[pos] = true
		d.ReturnTaints = append(d.ReturnTaints, ReturnTaint{Node: n, Pkg: n.Pkg, Pos: pos, Flow: ext})
	}
}

// resultCount is the number of values the node returns.
func resultCount(n *CGNode) int {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Results == nil {
		return 0
	}
	c := 0
	for _, f := range ft.Results.List {
		if len(f.Names) == 0 {
			c++
		} else {
			c += len(f.Names)
		}
	}
	return c
}

// namedResults returns the node's named result variables, if any.
func (d *Dataflow) namedResults(n *CGNode) []types.Object {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Results == nil {
		return nil
	}
	var out []types.Object
	for _, f := range ft.Results.List {
		for _, id := range f.Names {
			if obj := n.Pkg.Info.Defs[id]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// transferCall propagates tainted arguments into the parameters of
// every resolved callee whose body is loaded, and applies the
// pointer-laundering rule at calls the graph cannot see into.
func (d *Dataflow) transferCall(n *CGNode, call *ast.CallExpr) {
	targets := d.siteTargets[n][call.Pos()]
	if len(targets) == 0 {
		d.launderThroughUnknown(n, call)
		return
	}
	for _, t := range targets {
		params, variadic := paramObjsOf(t)
		for i, arg := range call.Args {
			fl := d.exprTaint(n, arg)
			if fl == nil {
				continue
			}
			j := i
			if variadic && j >= len(params) {
				j = len(params) - 1
			}
			if j < 0 || j >= len(params) || params[j] == nil {
				continue
			}
			d.taintVar(n, params[j], arg.Pos(),
				"arg "+params[j].Name()+" of "+t.Name, fl)
		}
		// A method call on a tainted receiver taints the receiver
		// parameter inside the callee.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if recv := recvObjOf(t); recv != nil {
				if fl := d.exprTaint(n, sel.X); fl != nil {
					d.taintVar(n, recv, sel.X.Pos(),
						"receiver "+recv.Name()+" of "+t.Name, fl)
				}
			}
		}
	}
}

// launderThroughUnknown handles a call with no loaded callee (stdlib,
// export-data-only dependencies): a tainted argument may be stored by
// the callee through any pointer-like argument, so those arguments'
// bases are tainted too (fmt.Sscanf(tainted, "%d", &x) taints x).
func (d *Dataflow) launderThroughUnknown(n *CGNode, call *ast.CallExpr) {
	var tainted *Flow
	for _, arg := range call.Args {
		if fl := d.exprTaint(n, arg); fl != nil {
			tainted = fl
			break
		}
	}
	if tainted == nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			tainted = d.exprTaint(n, sel.X)
		}
	}
	if tainted == nil {
		return
	}
	info := n.Pkg.Info
	// A tainted argument may be absorbed by the receiver too
	// (buf.WriteString(t) taints buf).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isPkg := info.Uses[selBaseIdent(sel)].(*types.PkgName); !isPkg {
			d.assignTo(n, sel.X, tainted)
		}
	}
	for _, arg := range call.Args {
		a := ast.Unparen(arg)
		if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
			d.assignTo(n, u.X, tainted)
			continue
		}
		t := info.TypeOf(a)
		if t == nil {
			continue
		}
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
			d.assignTo(n, a, tainted)
		}
	}
}

// transferComposite taints the struct fields a composite literal
// initializes with tainted values (keyed and positional elements).
// namedStructLit reports whether cl builds a named struct (directly or
// through one pointer), returning its type. These are the composites
// whose taint lives in per-field records rather than in the value.
func namedStructLit(info *types.Info, cl *ast.CompositeLit) (*types.Named, *types.Struct, bool) {
	t := info.TypeOf(cl)
	if t == nil {
		return nil, nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil, false
	}
	return named, st, true
}

func (d *Dataflow) transferComposite(n *CGNode, cl *ast.CompositeLit) {
	named, st, ok := namedStructLit(n.Pkg.Info, cl)
	if !ok {
		return
	}
	owner := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	for i, elt := range cl.Elts {
		var fieldName string
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			fieldName, val = id.Name, kv.Value
		} else if i < st.NumFields() {
			fieldName = st.Field(i).Name()
		}
		if fieldName == "" {
			continue
		}
		if fl := d.exprTaint(n, val); fl != nil {
			d.taintField(n, fieldKey{owner: owner, field: fieldName},
				val.Pos(), named.Obj().Name()+"."+fieldName+" (composite literal)", fl)
		}
	}
}

// assignTo routes a tainted right-hand side into an lvalue: variables
// are tainted directly, field selections taint the field (and record a
// sink event), and stores through pointers, indexes, and slices taint
// the base expression ("taints everything it touches").
func (d *Dataflow) assignTo(n *CGNode, lhs ast.Expr, fl *Flow) {
	info := n.Pkg.Info
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		d.taintIdent(n, l, fl)
	case *ast.SelectorExpr:
		if sf, ok := fieldKeyOf(info, l); ok {
			short := sf.owner[strings.LastIndexByte(sf.owner, '.')+1:]
			d.taintField(n, sf, l.Sel.Pos(), short+"."+sf.field, fl)
			return
		}
		// Qualified package-level variable (pkg.V = t).
		if obj, ok := info.Uses[l.Sel].(*types.Var); ok {
			d.taintVar(n, obj, l.Sel.Pos(), l.Sel.Name, fl)
		}
	case *ast.IndexExpr:
		d.assignTo(n, l.X, fl)
	case *ast.StarExpr:
		d.assignTo(n, l.X, fl)
	case *ast.SliceExpr:
		d.assignTo(n, l.X, fl)
	}
}

// taintIdent taints the variable an identifier denotes.
func (d *Dataflow) taintIdent(n *CGNode, id *ast.Ident, fl *Flow) {
	if id.Name == "_" {
		return
	}
	info := n.Pkg.Info
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok {
		d.taintVar(n, v, id.Pos(), id.Name, fl)
	}
}

// taintVar marks one variable tainted (first flow wins).
func (d *Dataflow) taintVar(n *CGNode, obj types.Object, pos token.Pos, desc string, fl *Flow) {
	if obj == nil || d.vars[obj] != nil {
		return
	}
	d.vars[obj] = fl.extend(n.Pkg, pos, desc)
	d.changed = true
}

// taintField marks one struct field tainted and records the sink event.
func (d *Dataflow) taintField(n *CGNode, sf fieldKey, pos token.Pos, desc string, fl *Flow) {
	ext := fl.extend(n.Pkg, pos, desc)
	if d.fields[sf] == nil {
		d.fields[sf] = ext
		d.changed = true
	}
	if !d.fieldSeen[pos] {
		d.fieldSeen[pos] = true
		d.FieldTaints = append(d.FieldTaints, FieldTaint{Field: sf, Pkg: n.Pkg, Pos: pos, Flow: ext})
	}
}

// exprTaint reports whether any atom of e carries taint — a source
// expression, a tainted variable use, a tainted field read, or a call
// whose loaded callee returns taint — and returns the first such flow
// in traversal order. Function literals are skipped (they are separate
// nodes; creating one does not evaluate its body).
func (d *Dataflow) exprTaint(n *CGNode, e ast.Expr) *Flow {
	if e == nil {
		return nil
	}
	info := n.Pkg.Info
	var found *Flow
	ast.Inspect(e, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		// A named-struct composite carries its taint in the per-field
		// records transferComposite writes, not in the value: pruning
		// the subtree here is what keeps one tainted field (a
		// constructor stamping time.Now into a pacing field, say) from
		// wholesale-tainting every value the struct ever touches.
		// Field reads recover the taint through the fields map.
		if cl, ok := x.(*ast.CompositeLit); ok {
			if _, _, isStruct := namedStructLit(info, cl); isStruct {
				return false
			}
		}
		if d.spec.Source != nil && x != nil {
			if desc, ok := d.spec.Source(n.Pkg, x); ok {
				found = &Flow{SrcPos: x.Pos(), SrcPkg: n.Pkg, SrcDesc: desc}
				return false
			}
		}
		switch x := x.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				if fl := d.vars[obj]; fl != nil {
					found = fl
					return false
				}
			}
		case *ast.SelectorExpr:
			if sf, ok := fieldKeyOf(info, x); ok {
				if fl := d.fields[sf]; fl != nil {
					found = fl
					return false
				}
			}
		case *ast.CallExpr:
			targets := d.siteTargets[n][x.Pos()]
			for _, t := range targets {
				for _, fl := range d.results[t] {
					if fl != nil {
						found = fl
						return false
					}
				}
			}
			// A loaded callee's arguments and receiver reach its body
			// through the parameters (transferCall); the call's own
			// value is tainted only by what the callee returns.
			return len(targets) == 0
		}
		return true
	})
	return found
}

// selBaseIdent returns the identifier at the base of a selector chain
// (a for a.b.c), nil when the base is not an identifier.
func selBaseIdent(sel *ast.SelectorExpr) *ast.Ident {
	e := ast.Expr(sel)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// paramObjsOf returns the callee's parameter objects in declaration
// order (nil placeholders for unnamed parameters) and whether the
// signature is variadic.
func paramObjsOf(t *CGNode) ([]types.Object, bool) {
	var ft *ast.FuncType
	if t.Decl != nil {
		ft = t.Decl.Type
	} else {
		ft = t.Lit.Type
	}
	if ft.Params == nil {
		return nil, false
	}
	variadic := false
	var out []types.Object
	for _, f := range ft.Params.List {
		if _, ok := f.Type.(*ast.Ellipsis); ok {
			variadic = true
		}
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, id := range f.Names {
			out = append(out, t.Pkg.Info.Defs[id])
		}
	}
	return out, variadic
}

// recvObjOf returns the callee's receiver object, nil for functions
// and unnamed receivers.
func recvObjOf(t *CGNode) types.Object {
	if t.Decl == nil || t.Decl.Recv == nil || len(t.Decl.Recv.List) == 0 {
		return nil
	}
	names := t.Decl.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return t.Pkg.Info.Defs[names[0]]
}

// fieldKeyOf resolves a selector to (owner struct, field) when it is
// a struct field selection on a named type.
func fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) (fieldKey, bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return fieldKey{}, false
	}
	recv := s.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	// Deep selections (a.b.c) attribute the field to the type that
	// actually declares it.
	if len(s.Index()) > 1 {
		// Walk the embedding chain: Recv -> field path. Only the final
		// field matters; its direct owner is the struct containing it.
		t := recv
		idx := s.Index()
		for _, i := range idx[:len(idx)-1] {
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return fieldKey{}, false
			}
			ft := st.Field(i).Type()
			if p, ok := ft.Underlying().(*types.Pointer); ok {
				ft = p.Elem()
			}
			t = ft
		}
		recv = t
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return fieldKey{}, false
	}
	return fieldKey{
		owner: named.Obj().Pkg().Path() + "." + named.Obj().Name(),
		field: sel.Sel.Name,
	}, true
}
