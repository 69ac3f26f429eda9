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
	scope := make(map[*Value]bool)
	return verifyOp(m.op, scope)
}

func verifyOp(op *Op, visible map[*Value]bool) error {
	for i, operand := range op.Operands {
		if operand == nil {
			return &VerifyError{Op: op.FullName(), Err: fmt.Errorf("operand %d is nil", i)}
		}
		if !visible[operand] {
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
			// Values visible inside a nested block: everything visible at the
			// op, plus the block's own arguments, plus (incrementally) each
			// op's results. Isolation is not enforced: EVEREST dialects use
			// implicit capture like MLIR's affine/scf regions.
			inner := make(map[*Value]bool, len(visible)+len(block.Args))
			for v := range visible {
				inner[v] = true
			}
			for _, a := range block.Args {
				inner[a] = true
			}
			for i, nested := range block.Ops {
				nestedInfo := nested.ctx.lookupOp(nested.Dialect, nested.Name)
				if nestedInfo != nil && nestedInfo.Terminator && i != len(block.Ops)-1 {
					return &VerifyError{Op: nested.FullName(),
						Err: fmt.Errorf("terminator is not the last op in its block")}
				}
				if err := verifyOp(nested, inner); err != nil {
					return err
				}
				for _, r := range nested.Results {
					inner[r] = true
				}
			}
		}
	}

	// Results become visible to the parent scope after the op completes.
	for _, r := range op.Results {
		visible[r] = true
	}
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
