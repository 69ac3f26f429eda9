// Package condrust implements the EVEREST coordination language (paper
// §V-A2, Fig. 4): ConDRust, an imperative language based on a subset of Rust
// (Suchert et al., ECOOP 2023) that compiles to deterministic dataflow.
//
// The supported subset is exactly the shape of Fig. 4:
//
//	fn match_one(gv: GpsVector, mapcell: MapCell) -> RoadSpeedVector {
//	    #[kernel(offloaded = true, multiplicity = [1, 1, 1, 1],
//	             path = "projection.cpp")]
//	    let cv: CandiVector = projection(gv, mapcell);
//	    let t: Trellis = build_trellis(gv, cv, mapcell);
//	    let rsvbb: RoadSpeedVector = viterbi(t, cv);
//	    interpolate(rsvbb, mapcell)
//	}
//
// Functions are sequences of let-bound calls ending in a tail expression.
// Because every value is produced exactly once and consumed by name, the
// program is a static dataflow graph: parallel execution is deterministic by
// construction ("provable determinism", the language's key property). The
// #[kernel] attribute marks calls for FPGA offloading and carries the HLS
// source path and multiplicity, feeding the compile-time placement
// exploration of experiment E10.
package condrust

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// KernelAttr is the #[kernel(...)] annotation of one statement.
type KernelAttr struct {
	Offloaded    bool
	Multiplicity []int
	Path         string
}

// Call is a function application over previously bound names.
type Call struct {
	Fn   string
	Args []string
}

// Stmt is one `let name: Type = call(args);` statement.
type Stmt struct {
	Name string
	Call Call
	Attr *KernelAttr
	Line int
}

// Param is a typed function parameter.
type Param struct {
	Name string
	Type string
}

// Func is a parsed ConDRust function.
type Func struct {
	Name   string
	Params []Param
	Stmts  []Stmt
	// Tail is the returned expression: a call or a bare name.
	Tail     Call
	TailName string // set when the tail is a bare identifier
}

// Program is a set of functions.
type Program struct {
	Funcs []*Func
}

// Find returns the function with the given name, or nil.
func (p *Program) Find(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

type lexer struct {
	src  []rune
	pos  int
	line int
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
	}
	return r
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		r := l.peek()
		if unicode.IsSpace(r) {
			l.advance()
			continue
		}
		if r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		break
	}
}

func (l *lexer) ident() string {
	var b strings.Builder
	for l.pos < len(l.src) {
		r := l.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			b.WriteRune(l.advance())
		} else {
			break
		}
	}
	return b.String()
}

func (l *lexer) expect(s string) error {
	l.skipSpace()
	for _, want := range s {
		if l.pos >= len(l.src) || l.peek() != want {
			return fmt.Errorf("condrust:%d: expected %q", l.line, s)
		}
		l.advance()
	}
	return nil
}

func (l *lexer) accept(s string) bool {
	l.skipSpace()
	save, saveLine := l.pos, l.line
	for _, want := range s {
		if l.pos >= len(l.src) || l.peek() != want {
			l.pos, l.line = save, saveLine
			return false
		}
		l.advance()
	}
	return true
}

// Parse parses ConDRust source into a Program.
func Parse(src string) (*Program, error) {
	l := &lexer{src: []rune(src), line: 1}
	prog := &Program{}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			break
		}
		f, err := parseFunc(l)
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, f)
	}
	if len(prog.Funcs) == 0 {
		return nil, fmt.Errorf("condrust: no functions in source")
	}
	return prog, nil
}

func parseFunc(l *lexer) (*Func, error) {
	if err := l.expect("fn"); err != nil {
		return nil, err
	}
	l.skipSpace()
	f := &Func{Name: l.ident()}
	if f.Name == "" {
		return nil, fmt.Errorf("condrust:%d: expected function name", l.line)
	}
	if err := l.expect("("); err != nil {
		return nil, err
	}
	for !l.accept(")") {
		l.skipSpace()
		p := Param{Name: l.ident()}
		if p.Name == "" {
			return nil, fmt.Errorf("condrust:%d: expected parameter name", l.line)
		}
		if err := l.expect(":"); err != nil {
			return nil, err
		}
		l.skipSpace()
		p.Type = l.ident()
		if p.Type == "" {
			return nil, fmt.Errorf("condrust:%d: expected parameter type", l.line)
		}
		f.Params = append(f.Params, p)
		l.accept(",")
	}
	if l.accept("->") {
		l.skipSpace()
		l.ident() // the return type
	}
	if err := l.expect("{"); err != nil {
		return nil, err
	}

	for {
		l.skipSpace()
		var attr *KernelAttr
		if l.accept("#[") {
			a, err := parseAttr(l)
			if err != nil {
				return nil, err
			}
			attr = a
			l.skipSpace()
		}
		if l.accept("let") {
			line := l.line
			l.skipSpace()
			s := Stmt{Name: l.ident(), Attr: attr, Line: line}
			if s.Name == "" {
				return nil, fmt.Errorf("condrust:%d: expected binding name", l.line)
			}
			if l.accept(":") {
				l.skipSpace()
				l.ident() // the binding's type
			}
			if err := l.expect("="); err != nil {
				return nil, err
			}
			call, err := parseCall(l)
			if err != nil {
				return nil, err
			}
			s.Call = call
			if err := l.expect(";"); err != nil {
				return nil, err
			}
			f.Stmts = append(f.Stmts, s)
			continue
		}
		if attr != nil {
			return nil, fmt.Errorf("condrust:%d: #[kernel] attribute must precede a let statement", l.line)
		}
		// Tail expression.
		l.skipSpace()
		name := l.ident()
		if name == "" {
			return nil, fmt.Errorf("condrust:%d: expected tail expression", l.line)
		}
		l.skipSpace()
		if l.peek() == '(' {
			call, err := parseCallWithName(l, name)
			if err != nil {
				return nil, err
			}
			f.Tail = call
		} else {
			f.TailName = name
		}
		if err := l.expect("}"); err != nil {
			return nil, err
		}
		break
	}
	return f, nil
}

func parseCall(l *lexer) (Call, error) {
	l.skipSpace()
	name := l.ident()
	if name == "" {
		return Call{}, fmt.Errorf("condrust:%d: expected call", l.line)
	}
	return parseCallWithName(l, name)
}

func parseCallWithName(l *lexer, name string) (Call, error) {
	c := Call{Fn: name}
	if err := l.expect("("); err != nil {
		return c, err
	}
	for !l.accept(")") {
		l.skipSpace()
		arg := l.ident()
		if arg == "" {
			return c, fmt.Errorf("condrust:%d: expected argument name", l.line)
		}
		c.Args = append(c.Args, arg)
		l.accept(",")
	}
	return c, nil
}

func parseAttr(l *lexer) (*KernelAttr, error) {
	l.skipSpace()
	if kw := l.ident(); kw != "kernel" {
		return nil, fmt.Errorf("condrust:%d: unknown attribute %q", l.line, kw)
	}
	a := &KernelAttr{}
	if err := l.expect("("); err != nil {
		return nil, err
	}
	for !l.accept(")") {
		l.skipSpace()
		key := l.ident()
		if err := l.expect("="); err != nil {
			return nil, err
		}
		l.skipSpace()
		switch key {
		case "offloaded":
			v := l.ident()
			a.Offloaded = v == "true"
		case "multiplicity":
			if err := l.expect("["); err != nil {
				return nil, err
			}
			for !l.accept("]") {
				l.skipSpace()
				var num strings.Builder
				for unicode.IsDigit(l.peek()) {
					num.WriteRune(l.advance())
				}
				n, err := strconv.Atoi(num.String())
				if err != nil {
					return nil, fmt.Errorf("condrust:%d: bad multiplicity entry", l.line)
				}
				a.Multiplicity = append(a.Multiplicity, n)
				l.accept(",")
			}
		case "path":
			if err := l.expect(`"`); err != nil {
				return nil, err
			}
			var sb strings.Builder
			for l.pos < len(l.src) && l.peek() != '"' {
				sb.WriteRune(l.advance())
			}
			if err := l.expect(`"`); err != nil {
				return nil, err
			}
			a.Path = sb.String()
		default:
			return nil, fmt.Errorf("condrust:%d: unknown kernel attribute key %q", l.line, key)
		}
		l.accept(",")
	}
	if err := l.expect("]"); err != nil {
		return nil, err
	}
	return a, nil
}
