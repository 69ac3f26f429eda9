// Package dialects registers the EVEREST MLIR dialects of Fig. 5 of the
// paper that a compilation flow here builds: the frontends (ekl, cfdlang,
// jabbah), the tensor middle layer (teil), the coordination and
// system-generation layers (dfg, olympus), and the loop level (affine).
//
// Each Register* function installs operation definitions (arities plus
// semantic verifiers) into an mlir.Context. RegisterAll installs everything,
// which is what the SDK façade does on start-up.
package dialects

import (
	"fmt"

	"everest/internal/mlir"
)

// RegisterAll installs every EVEREST dialect into ctx.
func RegisterAll(ctx *mlir.Context) {
	RegisterEKL(ctx)
	RegisterTeIL(ctx)
	RegisterCFDlang(ctx)
	RegisterJabbah(ctx)
	RegisterDFG(ctx)
	RegisterOlympus(ctx)
	RegisterAffine(ctx)
}

// RegisterEKL installs the EVEREST Kernel Language dialect: the direct
// representation of parsed EKL programs (paper §V-A1, Fig. 3).
func RegisterEKL(ctx *mlir.Context) *mlir.Dialect {
	d := ctx.RegisterDialect("ekl")
	// EKL kernel definition.
	d.RegisterOp(&mlir.OpInfo{Name: "kernel", NumRegions: 1,
		Verify: requireString("sym_name")})
	// Named tensor binding.
	d.RegisterOp(&mlir.OpInfo{Name: "tensor", NumResults: 1,
		Verify: requireString("name")})
	// Einstein-notation contraction.
	d.RegisterOp(&mlir.OpInfo{Name: "einsum", MinOperands: 1, MaxOperands: -1, NumResults: 1, Verify: verifyEinsum})
	// Elementwise select(cond, a, b).
	d.RegisterOp(&mlir.OpInfo{Name: "select", MinOperands: 3, MaxOperands: 3, NumResults: 1})
	// Subscripted subscript a[i[x], x].
	d.RegisterOp(&mlir.OpInfo{Name: "gather", MinOperands: 2, MaxOperands: -1, NumResults: 1})
	// Two-point index window [j, j+1].
	d.RegisterOp(&mlir.OpInfo{Name: "range_pair", MinOperands: 1, MaxOperands: 2, NumResults: 1})
	// Elementwise broadcasted arithmetic.
	d.RegisterOp(&mlir.OpInfo{Name: "binary", MinOperands: 2, MaxOperands: 2, NumResults: 1, Verify: requireString("fn")})
	d.RegisterOp(&mlir.OpInfo{Name: "unary", MinOperands: 1, MaxOperands: 1, NumResults: 1,
		Verify: requireString("fn")})
	// Bind result tensor (in-place construction target).
	d.RegisterOp(&mlir.OpInfo{Name: "output", MinOperands: 1, MaxOperands: 1,
		Verify: requireString("name")})
	return d
}

// RegisterTeIL installs the tensor intermediate language (Rink et al.,
// ARRAY 2019): bufferized tensor programs ready for HLS.
func RegisterTeIL(ctx *mlir.Context) *mlir.Dialect {
	d := ctx.RegisterDialect("teil")
	// Tensor buffer allocation.
	d.RegisterOp(&mlir.OpInfo{Name: "alloc", NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "load", MinOperands: 1, MaxOperands: -1, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "store", MinOperands: 2, MaxOperands: -1})
	// Dense loop nest over named index space.
	d.RegisterOp(&mlir.OpInfo{Name: "loop", MinOperands: 0, MaxOperands: 0, NumRegions: 1, Verify: verifyLoop})
	d.RegisterOp(&mlir.OpInfo{Name: "yield", MinOperands: 0, MaxOperands: -1, Terminator: true})
	d.RegisterOp(&mlir.OpInfo{Name: "binary", MinOperands: 2, MaxOperands: 2, NumResults: 1,
		Verify: requireString("fn")})
	d.RegisterOp(&mlir.OpInfo{Name: "unary", MinOperands: 1, MaxOperands: 1, NumResults: 1,
		Verify: requireString("fn")})
	// Reduction accumulate into scalar carry.
	d.RegisterOp(&mlir.OpInfo{Name: "accumulate", MinOperands: 2, MaxOperands: 2, NumResults: 1})
	return d
}

// RegisterCFDlang installs the legacy CFDlang frontend dialect (paper §V-B).
func RegisterCFDlang(ctx *mlir.Context) *mlir.Dialect {
	d := ctx.RegisterDialect("cfdlang")
	d.RegisterOp(&mlir.OpInfo{Name: "prog", NumRegions: 1, Verify: requireString("sym_name")})
	d.RegisterOp(&mlir.OpInfo{Name: "decl", NumResults: 1, Verify: requireString("name")})
	d.RegisterOp(&mlir.OpInfo{Name: "mul", MinOperands: 2, MaxOperands: 2, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "add", MinOperands: 2, MaxOperands: 2, NumResults: 1})
	// Pairwise index contraction t.ij.ij.
	d.RegisterOp(&mlir.OpInfo{Name: "contract", MinOperands: 1, MaxOperands: 1, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "out", MinOperands: 1, MaxOperands: 1,
		Verify: requireString("name")})
	return d
}

// RegisterJabbah installs the ML operation-set-architecture dialect used to
// converge ONNX/TVM-style graphs (paper §V-B, Ringlein et al. OSA).
func RegisterJabbah(ctx *mlir.Context) *mlir.Dialect {
	d := ctx.RegisterDialect("jabbah")
	d.RegisterOp(&mlir.OpInfo{Name: "graph", NumRegions: 1, Verify: requireString("sym_name")})
	d.RegisterOp(&mlir.OpInfo{Name: "matmul", MinOperands: 2, MaxOperands: 2, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "conv2d", MinOperands: 2, MaxOperands: 3, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "relu", MinOperands: 1, MaxOperands: 1, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "add", MinOperands: 2, MaxOperands: 2, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "softmax", MinOperands: 1, MaxOperands: 1, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "pool", MinOperands: 1, MaxOperands: 1, NumResults: 1,
		Verify: requireString("kind")})
	d.RegisterOp(&mlir.OpInfo{Name: "output", MinOperands: 1, MaxOperands: -1})
	return d
}

// RegisterDFG installs the dataflow-graph dialect produced from ConDRust
// (paper §V-A2, Fig. 4): deterministic actors connected by streams.
func RegisterDFG(ctx *mlir.Context) *mlir.Dialect {
	d := ctx.RegisterDialect("dfg")
	d.RegisterOp(&mlir.OpInfo{Name: "graph", NumRegions: 1, Verify: requireString("sym_name")})
	// Dataflow actor.
	d.RegisterOp(&mlir.OpInfo{Name: "node", MinOperands: 0, MaxOperands: -1, NumResults: -1, Verify: verifyDFGNode})
	// Typed FIFO edge.
	d.RegisterOp(&mlir.OpInfo{Name: "channel", NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "output", MinOperands: 0, MaxOperands: -1})
	return d
}

// RegisterOlympus installs the system-generation dialect (Soldavini et al.,
// arXiv 2309.12917): kernel instances, PLMs, buses and lanes.
func RegisterOlympus(ctx *mlir.Context) *mlir.Dialect {
	d := ctx.RegisterDialect("olympus")
	d.RegisterOp(&mlir.OpInfo{Name: "system", NumRegions: 1, Verify: requireString("sym_name")})
	d.RegisterOp(&mlir.OpInfo{Name: "kernel_inst", MinOperands: 0, MaxOperands: -1, NumResults: -1,
		Verify: requireString("kernel")})
	// Private local memory.
	d.RegisterOp(&mlir.OpInfo{Name: "plm", NumResults: 1,
		Verify: verifyPLM})
	// Memory bus with lanes.
	d.RegisterOp(&mlir.OpInfo{Name: "bus", NumResults: 1,
		Verify: verifyBus})
	// Host<->device transfer edge.
	d.RegisterOp(&mlir.OpInfo{Name: "dma", MinOperands: 2, MaxOperands: 2})
	d.RegisterOp(&mlir.OpInfo{Name: "done", MinOperands: 0, MaxOperands: 0, Terminator: true})
	return d
}

// RegisterAffine installs the loop-level dialect shared with core MLIR
// (green boxes of Fig. 5): the form consumed by the HLS scheduler.
func RegisterAffine(ctx *mlir.Context) *mlir.Dialect {
	d := ctx.RegisterDialect("affine")
	d.RegisterOp(&mlir.OpInfo{Name: "for", MinOperands: 0, MaxOperands: 0, NumRegions: 1,
		Verify: verifyAffineFor})
	d.RegisterOp(&mlir.OpInfo{Name: "load", MinOperands: 1, MaxOperands: -1, NumResults: 1})
	d.RegisterOp(&mlir.OpInfo{Name: "store", MinOperands: 2, MaxOperands: -1})
	d.RegisterOp(&mlir.OpInfo{Name: "yield", MinOperands: 0, MaxOperands: -1, Terminator: true})
	// Affine index arithmetic.
	d.RegisterOp(&mlir.OpInfo{Name: "apply", MinOperands: 0, MaxOperands: -1, NumResults: 1})
	return d
}

func requireString(key string) func(*mlir.Op) error {
	return func(op *mlir.Op) error {
		if _, ok := op.Attrs[key].(mlir.StringAttr); !ok {
			return fmt.Errorf("requires string attribute %q", key)
		}
		return nil
	}
}

func verifyEinsum(op *mlir.Op) error {
	spec, ok := op.Attrs["spec"].(mlir.StringAttr)
	if !ok {
		return fmt.Errorf("requires string attribute \"spec\"")
	}
	s := string(spec)
	arrow := -1
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '-' && s[i+1] == '>' {
			arrow = i
			break
		}
	}
	if arrow < 0 {
		return fmt.Errorf("einsum spec %q missing ->", s)
	}
	lhs := s[:arrow]
	nInputs := 1
	for _, c := range lhs {
		if c == ',' {
			nInputs++
		}
	}
	if nInputs != len(op.Operands) {
		return fmt.Errorf("einsum spec %q names %d inputs but op has %d operands",
			s, nInputs, len(op.Operands))
	}
	return nil
}

func verifyLoop(op *mlir.Op) error {
	idx, ok := op.Attrs["indices"].(mlir.ArrayAttr)
	if !ok {
		return fmt.Errorf("teil.loop requires array attribute \"indices\"")
	}
	bounds, ok := op.Attrs["bounds"].(mlir.ArrayAttr)
	if !ok {
		return fmt.Errorf("teil.loop requires array attribute \"bounds\"")
	}
	if len(idx) != len(bounds) {
		return fmt.Errorf("teil.loop has %d indices but %d bounds", len(idx), len(bounds))
	}
	if len(op.Regions) != 1 || len(op.Regions[0].Blocks) == 0 {
		return fmt.Errorf("teil.loop requires a body region")
	}
	if got, want := len(op.Regions[0].Blocks[0].Args), len(idx); got != want {
		return fmt.Errorf("teil.loop body has %d args, want %d (one per index)", got, want)
	}
	return nil
}

func verifyAffineFor(op *mlir.Op) error {
	lo := mlir.GetInt(op.Attrs, "lower", -1)
	hi, ok := op.Attrs["upper"].(mlir.IntAttr)
	if !ok {
		return fmt.Errorf("affine.for requires int attribute \"upper\"")
	}
	if lo < 0 {
		return fmt.Errorf("affine.for requires non-negative \"lower\"")
	}
	if int64(hi) < lo {
		return fmt.Errorf("affine.for bounds inverted: [%d, %d)", lo, int64(hi))
	}
	if len(op.Regions) != 1 || len(op.Regions[0].Blocks) == 0 ||
		len(op.Regions[0].Blocks[0].Args) != 1 {
		return fmt.Errorf("affine.for body must have exactly one induction argument")
	}
	return nil
}

func verifyDFGNode(op *mlir.Op) error {
	if _, ok := op.Attrs["fn"].(mlir.StringAttr); !ok {
		return fmt.Errorf("dfg.node requires string attribute \"fn\"")
	}
	// Offloaded nodes must carry the kernel path, mirroring ConDRust's
	// #[kernel(offloaded = true, path = "...")] annotation.
	if mlir.GetBool(op.Attrs, "offloaded", false) {
		if mlir.GetString(op.Attrs, "path", "") == "" {
			return fmt.Errorf("offloaded dfg.node requires \"path\" to the kernel source")
		}
	}
	return nil
}

func verifyPLM(op *mlir.Op) error {
	if mlir.GetInt(op.Attrs, "words", 0) <= 0 {
		return fmt.Errorf("olympus.plm requires positive \"words\"")
	}
	if mlir.GetInt(op.Attrs, "width", 0) <= 0 {
		return fmt.Errorf("olympus.plm requires positive \"width\"")
	}
	return nil
}

func verifyBus(op *mlir.Op) error {
	width := mlir.GetInt(op.Attrs, "width", 0)
	lanes := mlir.GetInt(op.Attrs, "lanes", 1)
	if width <= 0 {
		return fmt.Errorf("olympus.bus requires positive \"width\"")
	}
	if lanes <= 0 || width%lanes != 0 {
		return fmt.Errorf("olympus.bus width %d not divisible into %d lanes", width, lanes)
	}
	return nil
}
