// Package ekl implements the EVEREST Kernel Language (paper §V-A1, Fig. 3):
// a tensor kernel language with a general syntax for Einstein notation.
//
// The language was designed around the RRTMG radiation module of WRF and
// supports the four extensions the paper calls out over prior tensor DSLs:
//
//   - in-place construction: statements assign into named tensors, may use
//     explicit left-hand-side subscripts, and may accumulate with "+=";
//   - broadcasting: an index variable missing from an operand simply
//     broadcasts that operand along it;
//   - index re-association: subscripts are affine expressions of index
//     variables and integer tensors ("k_major[kT+dT, p+dp, ...]");
//   - subscripted subscripts: integer tensors may appear inside subscripts
//     ("f_major[i_flav[x], x, ...]"), i.e. gathers.
//
// A kernel is declared as
//
//	kernel tau_major {
//	  input  p        : [X]
//	  input  k_major  : [T, P, E, G]
//	  input  i_flav   : [X] index
//	  param  strato = 9600.0
//	  iparam bnd
//	  i_strato = select(p[x] <= strato, 1, 0)
//	  tau = sum(dT) r[x, dT] * k_major[jT[x]+dT, jp[x], je[x], g]
//	  output tau[x, g]
//	}
//
// Reduction is explicit ("sum(i, j) body"), matching the ΣΣΣ of Fig. 3.
// Everything else follows Einstein convention: left-hand-side free indices
// define the iteration space.
package ekl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// TokenKind enumerates lexical token classes.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokKeyword // kernel input output param iparam index sum select
	TokPunct   // ( ) [ ] { } , :
	TokOp      // = += + - * / <= < >= > == !=
)

var keywords = map[string]bool{
	"kernel": true, "input": true, "output": true, "param": true,
	"iparam": true, "index": true, "sum": true, "select": true,
}

// Token is a lexical token with position information for diagnostics.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

// Lexer turns EKL source into tokens. '#' starts a line comment.
type Lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: []rune(src), line: 1, col: 1}
}

// Lex tokenizes the whole input, ending with a TokEOF token.
func (l *Lexer) Lex() ([]Token, error) {
	var toks []Token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) next() (Token, error) {
	// Skip whitespace and comments.
	for l.pos < len(l.src) {
		r := l.peek()
		if r == '#' {
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		if unicode.IsSpace(r) {
			l.advance()
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
	}

	startLine, startCol := l.line, l.col
	r := l.peek()

	switch {
	case unicode.IsLetter(r) || r == '_':
		var b strings.Builder
		for l.pos < len(l.src) {
			c := l.peek()
			if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
				b.WriteRune(l.advance())
			} else {
				break
			}
		}
		text := b.String()
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: startLine, Col: startCol}, nil

	case unicode.IsDigit(r) || (r == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1])):
		var b strings.Builder
		seenDot, seenExp := false, false
		for l.pos < len(l.src) {
			c := l.peek()
			switch {
			case unicode.IsDigit(c):
				b.WriteRune(l.advance())
			case c == '.' && !seenDot && !seenExp:
				seenDot = true
				b.WriteRune(l.advance())
			case (c == 'e' || c == 'E') && !seenExp && b.Len() > 0:
				seenExp = true
				b.WriteRune(l.advance())
				if l.peek() == '+' || l.peek() == '-' {
					b.WriteRune(l.advance())
				}
			default:
				goto doneNum
			}
		}
	doneNum:
		text := b.String()
		if _, err := strconv.ParseFloat(text, 64); err != nil {
			return Token{}, fmt.Errorf("ekl:%d:%d: bad number %q", startLine, startCol, text)
		}
		return Token{Kind: TokNumber, Text: text, Line: startLine, Col: startCol}, nil

	case strings.ContainsRune("()[]{},:", r):
		l.advance()
		return Token{Kind: TokPunct, Text: string(r), Line: startLine, Col: startCol}, nil

	case strings.ContainsRune("=+-*/<>!", r):
		l.advance()
		text := string(r)
		if l.pos < len(l.src) && l.peek() == '=' {
			// two-char operators: += == <= >= != ; note "--" etc. invalid
			text += string(l.advance())
		}
		switch text {
		case "=", "+=", "+", "-", "*", "/", "<=", "<", ">=", ">", "==", "!=":
			return Token{Kind: TokOp, Text: text, Line: startLine, Col: startCol}, nil
		}
		return Token{}, fmt.Errorf("ekl:%d:%d: unknown operator %q", startLine, startCol, text)

	default:
		return Token{}, fmt.Errorf("ekl:%d:%d: unexpected character %q", startLine, startCol, r)
	}
}
