package mlir

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the module in generic MLIR-like textual form. The output is
// deterministic (attributes sorted by key, values numbered in creation
// order), so it is usable in golden tests.
func (m *Module) String() string {
	p := &printer{names: make(map[*Value]string)}
	p.printOp(m.op, 0)
	return p.b.String()
}

type printer struct {
	b     strings.Builder
	names map[*Value]string
	next  int
}

func (p *printer) nameOf(v *Value) string {
	if n, ok := p.names[v]; ok {
		return n
	}
	var n string
	if v.name != "" {
		n = fmt.Sprintf("%%%s_%d", v.name, p.next)
	} else {
		n = fmt.Sprintf("%%%d", p.next)
	}
	p.next++
	p.names[v] = n
	return n
}

func (p *printer) printOp(op *Op, indent int) {
	pad := strings.Repeat("  ", indent)
	p.b.WriteString(pad)

	if len(op.Results) > 0 {
		for i, r := range op.Results {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.b.WriteString(p.nameOf(r))
		}
		p.b.WriteString(" = ")
	}

	fmt.Fprintf(&p.b, "%q", op.FullName())

	p.b.WriteString("(")
	for i, operand := range op.Operands {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.b.WriteString(p.nameOf(operand))
	}
	p.b.WriteString(")")

	if len(op.Attrs) > 0 {
		keys := make([]string, 0, len(op.Attrs))
		for k := range op.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		p.b.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				p.b.WriteString(", ")
			}
			fmt.Fprintf(&p.b, "%s = %s", k, op.Attrs[k].String())
		}
		p.b.WriteString("}")
	}

	if len(op.Regions) > 0 {
		p.b.WriteString(" (")
		for ri, region := range op.Regions {
			if ri > 0 {
				p.b.WriteString(", ")
			}
			p.b.WriteString("{\n")
			for bi, block := range region.Blocks {
				if bi > 0 || len(block.Args) > 0 {
					p.b.WriteString(pad + "  ")
					fmt.Fprintf(&p.b, "^bb%d(", bi)
					for ai, arg := range block.Args {
						if ai > 0 {
							p.b.WriteString(", ")
						}
						fmt.Fprintf(&p.b, "%s: %s", p.nameOf(arg), arg.Type())
					}
					p.b.WriteString("):\n")
				}
				for _, nested := range block.Ops {
					p.printOp(nested, indent+1)
				}
			}
			p.b.WriteString(pad + "}")
		}
		p.b.WriteString(")")
	}

	// Trailing type signature.
	p.b.WriteString(" : (")
	for i, operand := range op.Operands {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.b.WriteString(operand.Type().String())
	}
	p.b.WriteString(") -> (")
	for i, r := range op.Results {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.b.WriteString(r.Type().String())
	}
	p.b.WriteString(")\n")
}
