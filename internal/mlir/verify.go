package mlir

import (
	"fmt"
)

// VerifyError describes a verification failure at a specific op.
type VerifyError struct {
	Op  string
	Err error
}

func (e *VerifyError) Error() string { return fmt.Sprintf("verify %s: %v", e.Op, e.Err) }

// Unwrap returns the underlying cause.
func (e *VerifyError) Unwrap() error { return e.Err }

func valueLabel(v *Value) string {
	if v.name != "" {
		return v.name
	}
	return fmt.Sprintf("v%d", v.id)
}

// Verify checks structural validity of the whole module:
//
//  1. every operand is defined before use (SSA dominance within a block, or
//     is an argument of an enclosing block),
//  2. registered ops respect their operand/result/region arities,
//  3. terminators appear only in last position,
//  4. per-op semantic verifiers pass.
//
// Unregistered ops (unknown dialects) are structurally checked only, matching
// MLIR's "unregistered dialects allowed" mode used during staged lowering.
func (m *Module) Verify() error {
	v := verifier{visible: make(map[*Value]bool)}
	return v.op(m.op)
}

// verifier holds the values visible at the op being checked: everything
// visible at its enclosing ops, plus its block's arguments, plus the
// results of the ops before it in its block. Isolation is not enforced:
// EVEREST dialects use implicit capture like MLIR's affine/scf regions.
// A block records the values it makes visible and removes exactly those
// on exit, so verification costs O(ops) instead of copying the visible
// set into every nested block.
type verifier struct {
	visible map[*Value]bool
	added   []*Value // values the open blocks made visible, innermost last
}

// add makes x visible, recording it for removal unless it already was.
func (v *verifier) add(x *Value) {
	if !v.visible[x] {
		v.visible[x] = true
		v.added = append(v.added, x)
	}
}

func (v *verifier) op(op *Op) error {
	for i, operand := range op.Operands {
		if operand == nil {
			return &VerifyError{Op: op.FullName(), Err: fmt.Errorf("operand %d is nil", i)}
		}
		if !v.visible[operand] {
			return &VerifyError{Op: op.FullName(),
				Err: fmt.Errorf("operand %d (%%%s) used before definition", i, valueLabel(operand))}
		}
	}

	info := op.ctx.lookupOp(op.Dialect, op.Name)
	if info != nil {
		if err := checkArity(op, info); err != nil {
			return &VerifyError{Op: op.FullName(), Err: err}
		}
		if info.Verify != nil {
			if err := info.Verify(op); err != nil {
				return &VerifyError{Op: op.FullName(), Err: err}
			}
		}
	}

	for _, region := range op.Regions {
		for _, block := range region.Blocks {
			if err := v.block(block); err != nil {
				return err
			}
		}
	}

	// Results become visible to the enclosing block after the op completes.
	for _, r := range op.Results {
		v.add(r)
	}
	return nil
}

// block verifies a nested block's ops, each seeing the block's arguments
// and the results of the ops before it, then hides what the block added.
func (v *verifier) block(block *Block) error {
	mark := len(v.added)
	for _, a := range block.Args {
		v.add(a)
	}
	for i, nested := range block.Ops {
		nestedInfo := nested.ctx.lookupOp(nested.Dialect, nested.Name)
		if nestedInfo != nil && nestedInfo.Terminator && i != len(block.Ops)-1 {
			return &VerifyError{Op: nested.FullName(),
				Err: fmt.Errorf("terminator is not the last op in its block")}
		}
		if err := v.op(nested); err != nil {
			return err
		}
	}
	for _, x := range v.added[mark:] {
		delete(v.visible, x)
	}
	v.added = v.added[:mark]
	return nil
}

func checkArity(op *Op, info *OpInfo) error {
	n := len(op.Operands)
	if info.MaxOperands >= 0 && (n < info.MinOperands || n > info.MaxOperands) {
		return fmt.Errorf("expected between %d and %d operands, got %d",
			info.MinOperands, info.MaxOperands, n)
	}
	if info.MaxOperands < 0 && n < info.MinOperands {
		return fmt.Errorf("expected at least %d operands, got %d", info.MinOperands, n)
	}
	if info.NumResults >= 0 && len(op.Results) != info.NumResults {
		return fmt.Errorf("expected %d results, got %d", info.NumResults, len(op.Results))
	}
	if info.NumRegions > 0 && len(op.Regions) != info.NumRegions {
		return fmt.Errorf("expected %d regions, got %d", info.NumRegions, len(op.Regions))
	}
	return nil
}
