// Package mlir implements a compact, from-scratch multi-level intermediate
// representation modelled after the MLIR framework the EVEREST SDK builds on
// (Lattner et al., CGO 2021; paper §V-B, Fig. 5).
//
// The package provides:
//
//   - a Context owning dialect registrations and type/attribute uniquing,
//   - SSA Values, Ops with attributes and nested Regions/Blocks,
//   - a structural verifier (SSA dominance, operand/result arities,
//     per-op semantic checks registered by dialects),
//   - a PassManager running module passes with statistics, and
//   - a deterministic textual printer in generic-MLIR syntax.
//
// EVEREST dialects (ekl, teil, base2, dfg, olympus, evp, fsm — the blue
// boxes of Fig. 5) live in the dialects subpackage and register themselves on
// a Context via their Register functions.
package mlir

import (
	"fmt"
	"sort"
)

// Context owns dialects and produces IR entities. A Context is not safe for
// concurrent mutation; build modules from a single goroutine.
type Context struct {
	dialects map[string]*Dialect
	nextID   int
}

// NewContext returns an empty Context with only the builtin dialect loaded.
func NewContext() *Context {
	c := &Context{dialects: make(map[string]*Dialect)}
	registerBuiltin(c)
	return c
}

// Dialect groups operation definitions under a namespace (e.g. "teil").
type Dialect struct {
	Name string
	ops  map[string]*OpInfo
}

// OpInfo describes one operation of a dialect: its expected arities and an
// optional semantic verifier invoked by Module.Verify.
type OpInfo struct {
	Name        string // fully qualified, e.g. "teil.contract"
	MinOperands int
	MaxOperands int // -1 means variadic
	NumResults  int // -1 means variadic
	NumRegions  int
	Verify      func(op *Op) error
	Terminator  bool // true if the op must end its block
}

// RegisterDialect creates (or returns the existing) dialect with that name.
func (c *Context) RegisterDialect(name string) *Dialect {
	if d, ok := c.dialects[name]; ok {
		return d
	}
	d := &Dialect{Name: name, ops: make(map[string]*OpInfo)}
	c.dialects[name] = d
	return d
}

// DialectNames returns the sorted names of all registered dialects.
func (c *Context) DialectNames() []string {
	names := make([]string, 0, len(c.dialects))
	for n := range c.dialects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterOp adds an operation definition to the dialect. The name must be
// unqualified ("contract", not "teil.contract").
func (d *Dialect) RegisterOp(info *OpInfo) {
	if info.Name == "" {
		panic("mlir: RegisterOp with empty name")
	}
	qualified := d.Name + "." + info.Name
	cp := *info
	cp.Name = qualified
	d.ops[info.Name] = &cp
}

// lookupOp resolves "dialect.op" to its OpInfo. Unregistered ops are legal
// (unknown dialects are allowed, as in MLIR) and yield nil.
func (c *Context) lookupOp(dialect, name string) *OpInfo {
	d, ok := c.dialects[dialect]
	if !ok {
		return nil
	}
	return d.ops[name]
}

func (c *Context) newID() int {
	c.nextID++
	return c.nextID
}

// registerBuiltin installs the builtin dialect: module and func scaffolding
// shared by every flow.
func registerBuiltin(c *Context) {
	b := c.RegisterDialect("builtin")
	b.RegisterOp(&OpInfo{Name: "module", NumResults: 0, NumRegions: 1})
	b.RegisterOp(&OpInfo{Name: "func", NumResults: 0, NumRegions: 1,
		Verify: func(op *Op) error {
			if _, ok := op.Attrs["sym_name"].(StringAttr); !ok {
				return fmt.Errorf("builtin.func requires string attribute sym_name")
			}
			return nil
		}})
	b.RegisterOp(&OpInfo{Name: "return", MinOperands: 0, MaxOperands: -1, Terminator: true})
	b.RegisterOp(&OpInfo{Name: "constant", NumResults: 1,
		Verify: func(op *Op) error {
			if _, ok := op.Attrs["value"]; !ok {
				return fmt.Errorf("builtin.constant requires a value attribute")
			}
			return nil
		}})
	b.RegisterOp(&OpInfo{Name: "call", MinOperands: 0, MaxOperands: -1, NumResults: -1,
		Verify: func(op *Op) error {
			if _, ok := op.Attrs["callee"].(StringAttr); !ok {
				return fmt.Errorf("builtin.call requires string attribute callee")
			}
			return nil
		}})
	b.RegisterOp(&OpInfo{Name: "unrealized_cast", MinOperands: 1, MaxOperands: 1, NumResults: 1})
}
