package condrust

import (
	"strings"
	"testing"
	"testing/quick"
)

// fig4Src is the paper's Fig. 4 example verbatim (module paths elided).
const fig4Src = `
fn match_one(gv: GpsVector, mapcell: MapCell) -> RoadSpeedVector {
    #[kernel(offloaded = true, multiplicity = [1, 1, 1, 1],
             path = "projection.cpp")]
    let cv: CandiVector = projection(gv, mapcell);
    let t: Trellis = build_trellis(gv, cv, mapcell);
    let rsvbb: RoadSpeedVector = viterbi(t, cv);
    interpolate(rsvbb, mapcell)
}
`

func TestParseFig4(t *testing.T) {
	prog, err := Parse(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Find("match_one")
	if f == nil {
		t.Fatal("match_one not found")
	}
	if len(f.Params) != 2 || f.Params[0].Name != "gv" || f.Params[1].Type != "MapCell" {
		t.Errorf("params wrong: %+v", f.Params)
	}
	if f.RetType != "RoadSpeedVector" {
		t.Errorf("return type %q", f.RetType)
	}
	if len(f.Stmts) != 3 {
		t.Fatalf("want 3 statements, got %d", len(f.Stmts))
	}
	attr := f.Stmts[0].Attr
	if attr == nil || !attr.Offloaded || attr.Path != "projection.cpp" {
		t.Errorf("kernel attr wrong: %+v", attr)
	}
	if len(attr.Multiplicity) != 4 {
		t.Errorf("multiplicity wrong: %v", attr.Multiplicity)
	}
	if f.Tail.Fn != "interpolate" || len(f.Tail.Args) != 2 {
		t.Errorf("tail wrong: %+v", f.Tail)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"fn { }",
		"fn f( { }",
		"fn f() -> T { let x = ; x }",
		"fn f() -> T { #[kernel(offloaded = true)] x }",
		"fn f() -> T { let x: T = g(y) }", // missing semicolon
		"fn f() -> T { #[wrong()] let x: T = g(); x }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestBuildGraphChecks(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unbound arg", `fn f(a: A) -> B { let x: B = g(q); x }`},
		{"rebinding", `fn f(a: A) -> B { let x: B = g(a); let x: B = h(a); x }`},
		{"dup param", `fn f(a: A, a: A) -> B { let x: B = g(a); x }`},
		{"unbound tail", `fn f(a: A) -> B { let x: B = g(a); y }`},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		if _, err := BuildGraph(prog.Funcs[0]); err == nil {
			t.Errorf("%s: BuildGraph must fail", c.name)
		}
	}
}

func TestGraphStages(t *testing.T) {
	prog, err := Parse(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(prog.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	// projection -> build_trellis -> viterbi -> interpolate: pure chain.
	if g.CriticalPathLen() != 4 {
		t.Errorf("critical path %d, want 4", g.CriticalPathLen())
	}
	if len(g.OffloadCandidates()) != 1 || g.OffloadCandidates()[0].Fn != "projection" {
		t.Error("projection must be the only offload candidate")
	}
}

func TestParallelStages(t *testing.T) {
	src := `
fn fan(a: A) -> D {
    let x: B = f(a);
    let y: C = g(a);
    let z: D = h(x, y);
    z
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(prog.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	stages := g.Stages()
	if len(stages) != 2 {
		t.Fatalf("want 2 stages, got %d", len(stages))
	}
	if len(stages[0]) != 2 {
		t.Errorf("first stage should hold the two independent calls, got %d", len(stages[0]))
	}
}

func TestExecuteDeterministic(t *testing.T) {
	prog, err := Parse(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(prog.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	reg := FuncRegistry{
		"projection":    func(a []interface{}) (interface{}, error) { return a[0].(int) * 2, nil },
		"build_trellis": func(a []interface{}) (interface{}, error) { return a[0].(int) + a[1].(int), nil },
		"viterbi":       func(a []interface{}) (interface{}, error) { return a[0].(int) * a[1].(int), nil },
		"interpolate":   func(a []interface{}) (interface{}, error) { return a[0].(int) - a[1].(int), nil },
	}
	inputs := map[string]interface{}{"gv": 3, "mapcell": 10}
	// cv=6, t=9, rsvbb=54, result=44.
	first, err := g.Execute(reg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if first.(int) != 44 {
		t.Fatalf("result = %v, want 44", first)
	}
	// Determinism across many concurrent executions.
	for i := 0; i < 50; i++ {
		got, err := g.Execute(reg, inputs)
		if err != nil || got.(int) != 44 {
			t.Fatalf("run %d: %v (%v)", i, got, err)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	prog, _ := Parse(fig4Src)
	g, _ := BuildGraph(prog.Funcs[0])
	if _, err := g.Execute(FuncRegistry{}, map[string]interface{}{"gv": 1, "mapcell": 2}); err == nil {
		t.Error("missing implementations must error")
	}
	reg := FuncRegistry{
		"projection":    func(a []interface{}) (interface{}, error) { return nil, nil },
		"build_trellis": func(a []interface{}) (interface{}, error) { return nil, nil },
		"viterbi":       func(a []interface{}) (interface{}, error) { return nil, nil },
		"interpolate":   func(a []interface{}) (interface{}, error) { return nil, nil },
	}
	if _, err := g.Execute(reg, map[string]interface{}{"gv": 1}); err == nil {
		t.Error("missing input must error")
	}
}

func TestExecutePropagatesActorError(t *testing.T) {
	src := `fn f(a: A) -> B { let x: B = boom(a); x }`
	prog, _ := Parse(src)
	g, _ := BuildGraph(prog.Funcs[0])
	reg := FuncRegistry{
		"boom": func(a []interface{}) (interface{}, error) {
			return nil, errBoom
		},
	}
	_, err := g.Execute(reg, map[string]interface{}{"a": 1})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("actor error must propagate, got %v", err)
	}
}

var errBoom = errFromString("boom failed")

type errFromString string

func (e errFromString) Error() string { return string(e) }

func TestEmitDFG(t *testing.T) {
	prog, _ := Parse(fig4Src)
	g, _ := BuildGraph(prog.Funcs[0])
	m, err := g.EmitDFG()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CountOps("dfg.node"); got != 4 {
		t.Errorf("dfg.node count %d, want 4", got)
	}
	if got := m.CountOps("dfg.channel"); got != 2 {
		t.Errorf("dfg.channel count %d, want 2 (params)", got)
	}
	text := m.String()
	if !strings.Contains(text, `offloaded = true`) {
		t.Error("offload annotation must survive into the dfg module")
	}
	if !strings.Contains(text, `"projection.cpp"`) {
		t.Error("kernel path must survive into the dfg module")
	}
}

func TestTailNameFunction(t *testing.T) {
	src := `fn f(a: A) -> B { let x: B = g(a); x }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(prog.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if g.Result != "x" {
		t.Errorf("result = %q, want x", g.Result)
	}
	reg := FuncRegistry{"g": func(a []interface{}) (interface{}, error) { return 7, nil }}
	out, err := g.Execute(reg, map[string]interface{}{"a": 0})
	if err != nil || out.(int) != 7 {
		t.Errorf("Execute = %v (%v)", out, err)
	}
}

func TestDeterminismUnderFanOutProperty(t *testing.T) {
	// Wide fan-out graph executed repeatedly must always give the same sum.
	src := `
fn wide(a: A) -> S {
    let x1: B = inc(a);
    let x2: B = inc(a);
    let x3: B = inc(a);
    let x4: B = inc(a);
    let s1: S = add(x1, x2);
    let s2: S = add(x3, x4);
    add(s1, s2)
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(prog.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	reg := FuncRegistry{
		"inc": func(a []interface{}) (interface{}, error) { return a[0].(int) + 1, nil },
		"add": func(a []interface{}) (interface{}, error) { return a[0].(int) + a[1].(int), nil },
	}
	prop := func(seed int8) bool {
		v := int(seed)
		out, err := g.Execute(reg, map[string]interface{}{"a": v})
		return err == nil && out.(int) == 4*(v+1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
