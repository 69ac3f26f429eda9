package condrust

import (
	"fmt"
	"sync"

	"everest/internal/mlir"
	"everest/internal/mlir/dialects"
)

// Node is one actor of the extracted dataflow graph.
type Node struct {
	Name string // bound name ("cv"), or "__tail" for the result
	Fn   string
	Args []string // producer names (params or earlier bindings)
	Attr *KernelAttr
}

// Offloaded reports whether the node carries an offload annotation.
func (n *Node) Offloaded() bool { return n.Attr != nil && n.Attr.Offloaded }

// Graph is the deterministic dataflow graph of one function.
type Graph struct {
	Fn     *Func
	Nodes  []*Node
	Inputs []string // parameter names
	Result string   // name whose value is the function result
}

// BuildGraph checks the function (definite assignment, single assignment,
// no use of unbound names — the properties that make ConDRust deterministic)
// and extracts its dataflow graph.
func BuildGraph(f *Func) (*Graph, error) {
	g := &Graph{Fn: f}
	defined := make(map[string]bool)
	for _, p := range f.Params {
		if defined[p.Name] {
			return nil, fmt.Errorf("condrust: %s: duplicate parameter %q", f.Name, p.Name)
		}
		defined[p.Name] = true
		g.Inputs = append(g.Inputs, p.Name)
	}
	for _, s := range f.Stmts {
		if defined[s.Name] {
			return nil, fmt.Errorf("condrust: %s line %d: %q rebinds an existing name (single assignment required)",
				f.Name, s.Line, s.Name)
		}
		for _, a := range s.Call.Args {
			if !defined[a] {
				return nil, fmt.Errorf("condrust: %s line %d: use of unbound name %q", f.Name, s.Line, a)
			}
		}
		g.Nodes = append(g.Nodes, &Node{
			Name: s.Name, Fn: s.Call.Fn,
			Args: append([]string(nil), s.Call.Args...), Attr: s.Attr,
		})
		defined[s.Name] = true
	}
	switch {
	case f.TailName != "":
		if !defined[f.TailName] {
			return nil, fmt.Errorf("condrust: %s: tail uses unbound name %q", f.Name, f.TailName)
		}
		g.Result = f.TailName
	case f.Tail.Fn != "":
		for _, a := range f.Tail.Args {
			if !defined[a] {
				return nil, fmt.Errorf("condrust: %s: tail call uses unbound name %q", f.Name, a)
			}
		}
		g.Nodes = append(g.Nodes, &Node{
			Name: "__tail", Fn: f.Tail.Fn,
			Args: append([]string(nil), f.Tail.Args...),
		})
		g.Result = "__tail"
	default:
		return nil, fmt.Errorf("condrust: %s: function has no result expression", f.Name)
	}
	return g, nil
}

// OffloadCandidates returns the nodes marked #[kernel(offloaded = true)].
func (g *Graph) OffloadCandidates() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Offloaded() {
			out = append(out, n)
		}
	}
	return out
}

// Stages returns the nodes grouped into topological levels: nodes within a
// level have no mutual dependencies and can run in parallel.
func (g *Graph) Stages() [][]*Node {
	level := make(map[string]int)
	for _, in := range g.Inputs {
		level[in] = 0
	}
	var stages [][]*Node
	for _, n := range g.Nodes {
		lv := 0
		for _, a := range n.Args {
			if la, ok := level[a]; ok && la+1 > lv {
				lv = la + 1
			}
		}
		if lv == 0 {
			lv = 1
		}
		level[n.Name] = lv
		for len(stages) < lv {
			stages = append(stages, nil)
		}
		stages[lv-1] = append(stages[lv-1], n)
	}
	return stages
}

// FuncRegistry maps actor function names to Go implementations. Values flow
// as interface{}; implementations must be pure for determinism to hold.
type FuncRegistry map[string]func(args []interface{}) (interface{}, error)

// Execute runs the graph on the inputs with unbounded parallelism across
// independent actors. Determinism: every name is written once and read only
// after its producer completes, so the result does not depend on scheduling.
func (g *Graph) Execute(reg FuncRegistry, inputs map[string]interface{}) (interface{}, error) {
	for _, in := range g.Inputs {
		if _, ok := inputs[in]; !ok {
			return nil, fmt.Errorf("condrust: missing input %q", in)
		}
	}
	for _, n := range g.Nodes {
		if _, ok := reg[n.Fn]; !ok {
			return nil, fmt.Errorf("condrust: no implementation registered for %q", n.Fn)
		}
	}

	var mu sync.Mutex
	vals := make(map[string]interface{}, len(inputs)+len(g.Nodes))
	for k, v := range inputs {
		vals[k] = v
	}
	var firstErr error

	for _, stage := range g.Stages() {
		var wg sync.WaitGroup
		for _, n := range stage {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				mu.Lock()
				args := make([]interface{}, len(n.Args))
				for i, a := range n.Args {
					args[i] = vals[a]
				}
				mu.Unlock()
				out, err := reg[n.Fn](args)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("condrust: actor %s(%s): %w", n.Fn, n.Name, err)
					return
				}
				vals[n.Name] = out
			}(n)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return vals[g.Result], nil
}

// EmitDFG renders the graph as a dfg-dialect MLIR module (Fig. 5's
// coordination layer), one dfg.node per actor with channel values carrying
// the dataflow edges.
func (g *Graph) EmitDFG() (*mlir.Module, error) {
	ctx := mlir.NewContext()
	dialects.RegisterAll(ctx)
	m := mlir.NewModule(ctx, g.Fn.Name)
	b := mlir.NewBuilder(ctx, m.Body())

	gop := b.CreateWithRegions("dfg.graph", nil, nil, map[string]mlir.Attribute{
		"sym_name": mlir.StringAttr(g.Fn.Name),
	}, 1)
	gb := mlir.NewBuilder(ctx, gop.Regions[0].Entry())

	vals := make(map[string]*mlir.Value)
	for _, in := range g.Inputs {
		ch := gb.Create("dfg.channel", nil,
			[]mlir.Type{mlir.StreamType{Elem: mlir.F64()}},
			map[string]mlir.Attribute{"name": mlir.StringAttr(in)})
		ch.Result(0).SetName(in)
		vals[in] = ch.Result(0)
	}
	for _, n := range g.Nodes {
		operands := make([]*mlir.Value, len(n.Args))
		for i, a := range n.Args {
			operands[i] = vals[a]
		}
		attrs := map[string]mlir.Attribute{"fn": mlir.StringAttr(n.Fn)}
		if n.Attr != nil {
			attrs["offloaded"] = mlir.BoolAttr(n.Attr.Offloaded)
			if n.Attr.Path != "" {
				attrs["path"] = mlir.StringAttr(n.Attr.Path)
			}
			if len(n.Attr.Multiplicity) > 0 {
				attrs["multiplicity"] = mlir.IntsAttr(n.Attr.Multiplicity...)
			}
		}
		op := gb.Create("dfg.node", operands,
			[]mlir.Type{mlir.StreamType{Elem: mlir.F64()}}, attrs)
		op.Result(0).SetName(n.Name)
		vals[n.Name] = op.Result(0)
	}
	gb.Create("dfg.output", []*mlir.Value{vals[g.Result]}, nil, nil)

	if err := m.Verify(); err != nil {
		return nil, err
	}
	return m, nil
}

// CriticalPathLen returns the number of stages (the depth of the graph).
func (g *Graph) CriticalPathLen() int { return len(g.Stages()) }
