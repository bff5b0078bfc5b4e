package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// nowSpec marks every call to a function literally named "now" as a
// taint source — an import-free stand-in for time.Now so snippets stay
// self-contained.
var nowSpec = TaintSpec{Source: func(pkg *Package, n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "now" {
		return "now", true
	}
	return "", false
}}

func runSnippetDataflow(t *testing.T, src string) (*Dataflow, []*Package) {
	t.Helper()
	pkgs := writeSnippet(t, "df", src)
	return RunDataflow(NewProgram(pkgs), nowSpec), pkgs
}

// dfVar finds the unique variable object with the given name across the
// loaded packages.
func dfVar(t *testing.T, pkgs []*Package, name string) types.Object {
	t.Helper()
	var found types.Object
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			if obj == nil || obj.Name() != name {
				continue
			}
			if _, ok := obj.(*types.Var); !ok {
				continue
			}
			if found != nil {
				t.Fatalf("multiple variables named %s in snippet", name)
			}
			found = obj
		}
	}
	if found == nil {
		t.Fatalf("no variable named %s in snippet", name)
	}
	return found
}

// wantChainOrder asserts the rendered chain mentions the markers in
// order.
func wantChainOrder(t *testing.T, chain string, markers ...string) {
	t.Helper()
	rest := chain
	for _, m := range markers {
		i := strings.Index(rest, m)
		if i < 0 {
			t.Fatalf("chain %q missing %q (in order %v)", chain, m, markers)
		}
		rest = rest[i+len(m):]
	}
}

// TestDataflowAssignChain: taint moves through a straight-line chain of
// locals, each assignment adding one hop to the flow, and a tainted
// return marks the function's result set.
func TestDataflowAssignChain(t *testing.T) {
	d, pkgs := runSnippetDataflow(t, `package df

func now() int { return 0 }

func use() int {
	t := now()
	u := t
	v := u + 1
	return v
}
`)
	fl := d.VarFlow(dfVar(t, pkgs, "v"))
	if fl == nil {
		t.Fatal("v should be tainted through t → u → v")
	}
	wantChainOrder(t, fl.Chain(), "now (df.go:", "→ t (", "→ u (", "→ v (")
	if len(d.ReturnTaints) != 1 || d.ReturnTaints[0].Node.Name != "df.use" {
		t.Fatalf("ReturnTaints = %+v, want exactly df.use's return", d.ReturnTaints)
	}
}

// TestDataflowFieldSink: a tainted store into a struct field records a
// FieldTaint event keyed by the field's declaring struct.
func TestDataflowFieldSink(t *testing.T) {
	d, _ := runSnippetDataflow(t, `package df

type engine struct{ clock int }

func now() int { return 0 }

func set(e *engine) {
	t := now()
	e.clock = t
}
`)
	if len(d.FieldTaints) != 1 {
		t.Fatalf("FieldTaints = %+v, want exactly one", d.FieldTaints)
	}
	ft := d.FieldTaints[0]
	want := fieldKey{owner: "fixture/df.engine", field: "clock"}
	if ft.Field != want {
		t.Errorf("tainted field = %+v, want %+v", ft.Field, want)
	}
	if d.FieldFlow(want) == nil {
		t.Error("FieldFlow(engine.clock) should be non-nil")
	}
	wantChainOrder(t, ft.Flow.Chain(), "now (", "→ t (", "→ engine.clock (")
}

// TestDataflowInterprocReturn: taint crosses a call through the
// callee's return value, with the hop recorded in the chain.
func TestDataflowInterprocReturn(t *testing.T) {
	d, _ := runSnippetDataflow(t, `package df

type engine struct{ clock int }

func now() int { return 0 }

func stamp() int { return now() }

func use(e *engine) {
	e.clock = stamp()
}
`)
	if len(d.FieldTaints) != 1 {
		t.Fatalf("FieldTaints = %+v, want the e.clock store", d.FieldTaints)
	}
	wantChainOrder(t, d.FieldTaints[0].Flow.Chain(),
		"now (", "returned by df.stamp", "engine.clock")
}

// TestDataflowInterprocArg: a tainted argument taints the callee's
// parameter, and the callee's own field store becomes the sink.
func TestDataflowInterprocArg(t *testing.T) {
	d, pkgs := runSnippetDataflow(t, `package df

type engine struct{ clock int }

func now() int { return 0 }

func sink(e *engine, v int) {
	e.clock = v
}

func use(e *engine) {
	sink(e, now())
}
`)
	if d.VarFlow(dfVar(t, pkgs, "v")) == nil {
		t.Fatal("sink's parameter v should be tainted by the call site")
	}
	if len(d.FieldTaints) != 1 {
		t.Fatalf("FieldTaints = %+v, want the e.clock store inside sink", d.FieldTaints)
	}
	wantChainOrder(t, d.FieldTaints[0].Flow.Chain(),
		"now (", "arg v of df.sink", "engine.clock")
}

// TestDataflowCallTaintedByResultOnly: a tainted argument to a loaded
// callee taints the call's value only when the callee returns it — a
// constructor that files the argument into a field it does not return
// yields a clean value, while an identity helper passes the taint on.
func TestDataflowCallTaintedByResultOnly(t *testing.T) {
	d, pkgs := runSnippetDataflow(t, `package df

type log struct{ stamp int }

func now() int { return 0 }

func record(l *log, v int) int {
	l.stamp = v
	return 7
}

func id(v int) int { return v }

func use(l *log) {
	kept := record(l, now())
	passed := id(now())
	_, _ = kept, passed
}
`)
	if fl := d.VarFlow(dfVar(t, pkgs, "kept")); fl != nil {
		t.Errorf("record does not return its argument, but kept is tainted: %s", fl.Chain())
	}
	fl := d.VarFlow(dfVar(t, pkgs, "passed"))
	if fl == nil {
		t.Fatal("id returns its argument; passed should be tainted")
	}
	wantChainOrder(t, fl.Chain(), "now (", "arg v of df.id", "returned by df.id", "passed")
}

// TestDataflowCollectionLaunder: storing taint into a map element
// taints the whole map ("taints everything it touches"), so reads of
// any element carry it onward.
func TestDataflowCollectionLaunder(t *testing.T) {
	d, pkgs := runSnippetDataflow(t, `package df

func now() int { return 0 }

func use() int {
	m := map[int]int{}
	m[1] = now()
	out := m[2]
	return out
}
`)
	if d.VarFlow(dfVar(t, pkgs, "m")) == nil {
		t.Fatal("m should be tainted by the element store")
	}
	if d.VarFlow(dfVar(t, pkgs, "out")) == nil {
		t.Fatal("out should be tainted by reading from the tainted map")
	}
}

// TestDataflowPointerBound documents the engine's stated aliasing
// bound: a store through a pointer taints the pointer (and flows to
// reads through it), but not the pointee variable itself.
func TestDataflowPointerBound(t *testing.T) {
	d, pkgs := runSnippetDataflow(t, `package df

func now() int { return 0 }

func use() int {
	x := 0
	p := &x
	*p = now()
	y := *p
	return y
}
`)
	if d.VarFlow(dfVar(t, pkgs, "p")) == nil {
		t.Fatal("p should be tainted by the store through it")
	}
	if d.VarFlow(dfVar(t, pkgs, "y")) == nil {
		t.Fatal("y should be tainted by reading through p")
	}
	// The documented bound: x itself is not tainted — aliasing of
	// locals is out of model (dataflow.go's "Bounds" comment).
	if d.VarFlow(dfVar(t, pkgs, "x")) != nil {
		t.Error("x tainted: the aliasing bound changed; update dataflow.go's contract comment")
	}
}

// TestDataflowCompositeAndRange: composite-literal elements taint the
// corresponding fields, and ranging over a tainted collection taints
// the iteration variables.
func TestDataflowCompositeAndRange(t *testing.T) {
	d, pkgs := runSnippetDataflow(t, `package df

type engine struct{ clock int }

func now() int { return 0 }

func mk() engine {
	return engine{clock: now()}
}

func sum() int {
	vals := []int{now()}
	s := 0
	for _, v := range vals {
		s += v
	}
	return s
}
`)
	want := fieldKey{owner: "fixture/df.engine", field: "clock"}
	if d.FieldFlow(want) == nil {
		t.Error("engine.clock should be tainted by the composite literal")
	}
	if d.VarFlow(dfVar(t, pkgs, "v")) == nil {
		t.Error("range value v should be tainted by the tainted slice")
	}
	if d.VarFlow(dfVar(t, pkgs, "s")) == nil {
		t.Error("s should be tainted through the compound assignment")
	}
}

// TestDataflowUnknownCallee: calls into packages loaded only as export
// data (stdlib) launder taint conservatively — through &-arguments and
// into method receivers — while package-qualified calls never taint
// the package name.
func TestDataflowUnknownCallee(t *testing.T) {
	d, pkgs := runSnippetDataflow(t, `package df

import (
	"fmt"
	"strings"
)

func now() string { return "" }

func scan() int {
	var x int
	fmt.Sscanf(now(), "%d", &x)
	return x
}

func build() string {
	var b strings.Builder
	b.WriteString(now())
	return b.String()
}
`)
	if d.VarFlow(dfVar(t, pkgs, "x")) == nil {
		t.Fatal("x should be tainted: Sscanf may store the tainted input through &x")
	}
	if d.VarFlow(dfVar(t, pkgs, "b")) == nil {
		t.Fatal("b should be tainted: WriteString absorbs the tainted argument")
	}
	// Both functions return tainted values.
	if len(d.ReturnTaints) != 2 {
		t.Errorf("ReturnTaints = %+v, want scan's and build's returns", d.ReturnTaints)
	}
}

// TestDataflowClean: a program with no sources yields no taint at all.
func TestDataflowClean(t *testing.T) {
	d, _ := runSnippetDataflow(t, `package df

type engine struct{ clock int }

func set(e *engine) {
	x := 2
	e.clock = x
}
`)
	if len(d.FieldTaints) != 0 || len(d.ReturnTaints) != 0 {
		t.Errorf("clean program produced taints: fields=%+v returns=%+v",
			d.FieldTaints, d.ReturnTaints)
	}
}
