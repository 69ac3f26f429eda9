package ekl

import (
	"fmt"
	"strings"
)

// Program is a collection of kernels parsed from one source unit.
type Program struct {
	Kernels []*Kernel
}

// Kernel is one EKL kernel: declarations plus ordered statements.
type Kernel struct {
	Name    string
	Inputs  []*TensorDecl
	Params  []*ParamDecl
	Outputs []*OutputDecl
	Stmts   []*Stmt
}

// Output returns the output declaration with the given name, or nil.
func (k *Kernel) Output(name string) *OutputDecl {
	for _, out := range k.Outputs {
		if out.Name == name {
			return out
		}
	}
	return nil
}

// SourceLines returns the number of statement lines, the metric used by the
// E1 compactness experiment (Fig. 3: ~10 EKL lines vs ~200 Fortran lines).
func (k *Kernel) SourceLines() int { return len(k.Stmts) }

// TensorDecl declares an input tensor: a shape of symbolic (capitalized
// identifiers) or literal extents, and whether it is integer-valued (index).
type TensorDecl struct {
	Name    string
	Dims    []Dim
	IsIndex bool
}

// Dim is one declared dimension: either a literal Size or a symbolic Sym.
type Dim struct {
	Sym  string // non-empty for symbolic extents ("X")
	Size int    // used when Sym == ""
}

func (d Dim) String() string {
	if d.Sym != "" {
		return d.Sym
	}
	return fmt.Sprintf("%d", d.Size)
}

// ParamDecl declares a scalar parameter. Integer parameters (iparam) may be
// used inside subscripts.
type ParamDecl struct {
	Name    string
	IsInt   bool
	Default float64
	HasDef  bool
}

// OutputDecl names a produced tensor and (optionally) the index order of its
// dimensions, e.g. "output tau[x, t, p, e, g]".
type OutputDecl struct {
	Name    string
	Indices []string // empty means first-appearance order of the defining stmt
}

// Stmt is one assignment: Name[LHS...] (=|+=) RHS.
type Stmt struct {
	Name       string
	LHS        []Expr // explicit LHS subscripts; nil means inferred
	Accumulate bool   // true for +=
	RHS        Expr
	Line       int
}

// Expr is an EKL expression node.
type Expr interface {
	String() string
	expr()
}

// NumberLit is a numeric literal.
type NumberLit struct{ Value float64 }

// IdentRef references an index variable, parameter, or rank-0 tensor.
type IdentRef struct{ Name string }

// SubscriptExpr indexes a tensor-valued base with index expressions.
type SubscriptExpr struct {
	Base    Expr
	Indices []Expr
}

// BinaryExpr applies +,-,*,/ or a comparison (which yields 0/1).
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies unary minus.
type UnaryExpr struct {
	Op string
	X  Expr
}

// CallExpr applies a builtin function: exp, log, sqrt, abs, min, max, pow,
// floor, or select.
type CallExpr struct {
	Fn   string
	Args []Expr
}

// SumExpr reduces the body over the named indices (explicit Σ of Fig. 3).
type SumExpr struct {
	Indices []string
	Body    Expr
}

// PairExpr constructs a 2-window along a fresh trailing dimension, the
// "[j_T, j_T+1]" form of Fig. 3.
type PairExpr struct{ A, B Expr }

func (NumberLit) expr()     {}
func (IdentRef) expr()      {}
func (SubscriptExpr) expr() {}
func (BinaryExpr) expr()    {}
func (UnaryExpr) expr()     {}
func (CallExpr) expr()      {}
func (SumExpr) expr()       {}
func (PairExpr) expr()      {}

func (e NumberLit) String() string { return trimFloat(e.Value) }
func (e IdentRef) String() string  { return e.Name }

func (e SubscriptExpr) String() string {
	parts := make([]string, len(e.Indices))
	for i, ix := range e.Indices {
		parts[i] = ix.String()
	}
	return fmt.Sprintf("%s[%s]", e.Base.String(), strings.Join(parts, ", "))
}

func (e BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L.String(), e.Op, e.R.String())
}

func (e UnaryExpr) String() string { return fmt.Sprintf("(%s%s)", e.Op, e.X.String()) }

func (e CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Fn, strings.Join(parts, ", "))
}

func (e SumExpr) String() string {
	return fmt.Sprintf("sum(%s) %s", strings.Join(e.Indices, ", "), e.Body.String())
}

func (e PairExpr) String() string {
	return fmt.Sprintf("[%s, %s]", e.A.String(), e.B.String())
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// walkExpr visits e and all children in pre-order.
func walkExpr(e Expr, fn func(Expr)) {
	fn(e)
	switch t := e.(type) {
	case SubscriptExpr:
		walkExpr(t.Base, fn)
		for _, ix := range t.Indices {
			walkExpr(ix, fn)
		}
	case BinaryExpr:
		walkExpr(t.L, fn)
		walkExpr(t.R, fn)
	case UnaryExpr:
		walkExpr(t.X, fn)
	case CallExpr:
		for _, a := range t.Args {
			walkExpr(a, fn)
		}
	case SumExpr:
		walkExpr(t.Body, fn)
	case PairExpr:
		walkExpr(t.A, fn)
		walkExpr(t.B, fn)
	}
}
