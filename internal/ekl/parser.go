package ekl

import (
	"fmt"
	"strconv"
	"unicode"
)

// Parse parses a full EKL source unit.
func Parse(src string) (*Program, error) {
	toks, err := NewLexer(src).Lex()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for !p.at(TokEOF, "") {
		k, err := p.parseKernel()
		if err != nil {
			return nil, err
		}
		prog.Kernels = append(prog.Kernels, k)
	}
	if len(prog.Kernels) == 0 {
		return nil, fmt.Errorf("ekl: no kernels in source")
	}
	return prog, nil
}

// ParseKernel parses a source unit expected to contain exactly one kernel.
func ParseKernel(src string) (*Kernel, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Kernels) != 1 {
		return nil, fmt.Errorf("ekl: expected exactly one kernel, got %d", len(prog.Kernels))
	}
	return prog.Kernels[0], nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, fmt.Errorf("ekl:%d:%d: expected %q, found %q", t.Line, t.Col, want, t.Text)
}

func (p *parser) parseKernel() (*Kernel, error) {
	_, err := p.expect(TokKeyword, "kernel")
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	k := &Kernel{Name: name.Text}
	for !p.accept(TokPunct, "}") {
		switch {
		case p.at(TokKeyword, "input"):
			d, err := p.parseInput()
			if err != nil {
				return nil, err
			}
			k.Inputs = append(k.Inputs, d)
		case p.at(TokKeyword, "param"), p.at(TokKeyword, "iparam"):
			d, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			k.Params = append(k.Params, d)
		case p.at(TokKeyword, "output"):
			d, err := p.parseOutput()
			if err != nil {
				return nil, err
			}
			k.Outputs = append(k.Outputs, d)
		case p.at(TokIdent, ""):
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			k.Stmts = append(k.Stmts, s)
		case p.at(TokEOF, ""):
			return nil, fmt.Errorf("ekl: unexpected end of input inside kernel %q", k.Name)
		default:
			t := p.cur()
			return nil, fmt.Errorf("ekl:%d:%d: unexpected token %q in kernel body", t.Line, t.Col, t.Text)
		}
	}
	if len(k.Outputs) == 0 {
		return nil, fmt.Errorf("ekl: kernel %q declares no outputs", k.Name)
	}
	return k, nil
}

func (p *parser) parseInput() (*TensorDecl, error) {
	p.next() // input
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ":"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "["); err != nil {
		return nil, err
	}
	d := &TensorDecl{Name: name.Text}
	for {
		t := p.cur()
		switch t.Kind {
		case TokNumber:
			p.next()
			n, err := strconv.Atoi(t.Text)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("ekl:%d:%d: dimension must be a positive integer, got %q", t.Line, t.Col, t.Text)
			}
			d.Dims = append(d.Dims, Dim{Size: n})
		case TokIdent:
			p.next()
			if !isSymbolicDim(t.Text) {
				return nil, fmt.Errorf("ekl:%d:%d: symbolic dimension %q must start with an uppercase letter", t.Line, t.Col, t.Text)
			}
			d.Dims = append(d.Dims, Dim{Sym: t.Text})
		default:
			return nil, fmt.Errorf("ekl:%d:%d: expected dimension, found %q", t.Line, t.Col, t.Text)
		}
		if p.accept(TokPunct, ",") {
			continue
		}
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
		break
	}
	if p.accept(TokKeyword, "index") {
		d.IsIndex = true
	}
	return d, nil
}

func isSymbolicDim(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}

func (p *parser) parseParam() (*ParamDecl, error) {
	kw := p.next() // param or iparam
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	d := &ParamDecl{Name: name.Text, IsInt: kw.Text == "iparam"}
	if p.accept(TokOp, "=") {
		neg := p.accept(TokOp, "-")
		num, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		v, _ := strconv.ParseFloat(num.Text, 64)
		if neg {
			v = -v
		}
		d.Default = v
		d.HasDef = true
	}
	return d, nil
}

func (p *parser) parseOutput() (*OutputDecl, error) {
	p.next() // output
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	d := &OutputDecl{Name: name.Text}
	if p.accept(TokPunct, "[") {
		for {
			ix, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			d.Indices = append(d.Indices, ix.Text)
			if p.accept(TokPunct, ",") {
				continue
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			break
		}
	}
	return d, nil
}

func (p *parser) parseStmt() (*Stmt, error) {
	name := p.next() // ident
	s := &Stmt{Name: name.Text, Line: name.Line}
	if p.accept(TokPunct, "[") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.LHS = append(s.LHS, e)
			if p.accept(TokPunct, ",") {
				continue
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			break
		}
	}
	switch {
	case p.accept(TokOp, "="):
	case p.accept(TokOp, "+="):
		s.Accumulate = true
	default:
		t := p.cur()
		return nil, fmt.Errorf("ekl:%d:%d: expected = or += after %q", t.Line, t.Col, s.Name)
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	s.RHS = rhs
	return s, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := cmp
//	cmp     := add (("<="|"<"|">="|">"|"=="|"!=") add)?
//	add     := mul (("+"|"-") mul)*
//	mul     := unary (("*"|"/") unary)*
//	unary   := "-" unary | "sum" "(" ids ")" mul | postfix
//	postfix := primary ("[" expr {"," expr} "]")*
//	primary := NUMBER | IDENT | call | "(" expr ")" | "[" expr "," expr "]"
func (p *parser) parseExpr() (Expr, error) { return p.parseCmp() }

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", "<", ">=", ">", "==", "!="} {
		if p.accept(TokOp, op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokOp, "+"):
			op = "+"
		case p.accept(TokOp, "-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokOp, "*"):
			op = "*"
		case p.accept(TokOp, "/"):
			op = "/"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "-", X: x}, nil
	}
	if p.at(TokKeyword, "sum") {
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		var ids []string
		for {
			id, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			ids = append(ids, id.Text)
			if p.accept(TokPunct, ",") {
				continue
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			break
		}
		// The sum body binds at multiplicative precedence, so
		// "sum(i) a[i]*b[i] + c" sums the product then adds c.
		body, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		return SumExpr{Indices: ids, Body: body}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept(TokPunct, "[") {
		sub := SubscriptExpr{Base: e}
		for {
			ix, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sub.Indices = append(sub.Indices, ix)
			if p.accept(TokPunct, ",") {
				continue
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			break
		}
		e = sub
	}
	return e, nil
}

var builtinFns = map[string]int{
	"exp": 1, "log": 1, "sqrt": 1, "abs": 1, "floor": 1,
	"min": 2, "max": 2, "pow": 2,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.next()
		v, _ := strconv.ParseFloat(t.Text, 64)
		return NumberLit{Value: v}, nil

	case t.Kind == TokKeyword && t.Text == "select":
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		var args []Expr
		for i := 0; i < 3; i++ {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if i < 2 {
				if _, err := p.expect(TokPunct, ","); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return CallExpr{Fn: "select", Args: args}, nil

	case t.Kind == TokIdent:
		p.next()
		if arity, ok := builtinFns[t.Text]; ok && p.at(TokPunct, "(") {
			p.next()
			var args []Expr
			for i := 0; i < arity; i++ {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if i < arity-1 {
					if _, err := p.expect(TokPunct, ","); err != nil {
						return nil, err
					}
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return CallExpr{Fn: t.Text, Args: args}, nil
		}
		return IdentRef{Name: t.Text}, nil

	case t.Kind == TokPunct && t.Text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.Kind == TokPunct && t.Text == "[":
		p.next()
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ","); err != nil {
			return nil, err
		}
		b, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
		return PairExpr{A: a, B: b}, nil

	default:
		return nil, fmt.Errorf("ekl:%d:%d: unexpected token %q in expression", t.Line, t.Col, t.Text)
	}
}
