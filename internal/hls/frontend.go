package hls

import (
	"fmt"

	"everest/internal/base2"
	"everest/internal/ekl"
	"everest/internal/mlir"
)

// FromModule extracts HLS kernels from a lowered EKL module (one kernel per
// teil-lowered statement op). The op mix is read from the teil loop bodies;
// trip counts come from the recorded bounds.
func FromModule(m *mlir.Module, format base2.Format) []Kernel {
	var kernels []Kernel
	i := 0
	m.Walk(func(op *mlir.Op) {
		if !mlir.GetBool(op.Attrs, "teil.lowered", false) {
			return
		}
		bounds, _ := op.Attrs["bounds"].(mlir.ArrayAttr)
		nest := LoopNest{}
		for _, b := range bounds {
			if ia, ok := b.(mlir.IntAttr); ok && ia > 0 {
				nest.TripCounts = append(nest.TripCounts, int(ia))
			}
		}
		if len(nest.TripCounts) == 0 {
			nest.TripCounts = []int{1}
		}
		var mix OpMix
		for _, region := range op.Regions {
			for _, blk := range region.Blocks {
				for _, nested := range blk.Ops {
					switch nested.FullName() {
					case "teil.load":
						mix.Loads++
					case "teil.store":
						mix.Stores++
					case "teil.accumulate":
						mix.Adds++
						nest.Reduction = true
					case "teil.binary":
						switch mlir.GetString(nested.Attrs, "fn", "*") {
						case "+", "-":
							mix.Adds++
						case "/":
							mix.Divs++
						case "<", "<=", ">", ">=", "==", "!=":
							mix.Compares++
						default:
							mix.Muls++
						}
					case "teil.unary":
						mix.Special++
					}
				}
			}
		}
		if op.Is("ekl.gather") {
			mix.Gathers++
		}
		if op.Is("ekl.select") {
			mix.Compares++
		}
		nest.Body = mix
		name := mlir.GetString(op.Attrs, "name", "")
		if name == "" {
			name = op.FullName()
		}
		kernels = append(kernels, Kernel{
			Name:   nameWithIndex(name, i),
			Nest:   nest,
			Format: format,
		})
		i++
	})
	return kernels
}

// FromEKLKernel builds one fused HLS kernel directly from an EKL kernel and
// the shapes ekl.Lower specialized it to: the loop nest of the dominant
// (largest iteration space) statement of the trace, with the op mix
// aggregated from the whole kernel body. This matches how the SDK offloads
// a kernel as a single accelerator.
func FromEKLKernel(k *ekl.Kernel, sh *ekl.Shapes, format base2.Format) Kernel {
	var nest LoopNest
	var domTrips int64 = -1
	for _, info := range sh.Trace {
		var counts []int
		trips := int64(1)
		for _, ix := range info.Free {
			counts = append(counts, info.Extents[ix])
			trips *= int64(info.Extents[ix])
		}
		for _, ix := range info.SumIdx {
			counts = append(counts, info.Extents[ix])
			trips *= int64(info.Extents[ix])
		}
		if trips > domTrips {
			domTrips = trips
			nest.TripCounts = counts
			nest.Reduction = len(info.SumIdx) > 0
		}
	}
	if len(nest.TripCounts) == 0 {
		nest.TripCounts = []int{1}
	}

	var mix OpMix
	for _, s := range k.Stmts {
		countOps(s.RHS, &mix)
		mix.Stores++
	}
	nest.Body = mix

	var bufBytes int64
	elemBytes := int64((format.Bits() + 7) / 8)
	for _, in := range k.Inputs {
		bufBytes += int64(sh.Size(in.Name)) * elemBytes
	}
	for _, out := range k.Outputs {
		bufBytes += int64(sh.Size(out.Name)) * elemBytes
	}

	return Kernel{Name: k.Name, Nest: nest, Format: format, BufferBytes: bufBytes}
}

func countOps(e ekl.Expr, mix *OpMix) {
	switch t := e.(type) {
	case ekl.NumberLit, ekl.IdentRef:
	case ekl.SubscriptExpr:
		trivial := true
		for _, ix := range t.Indices {
			if _, ok := ix.(ekl.IdentRef); !ok {
				trivial = false
			}
			countOps(ix, mix)
		}
		if trivial {
			mix.Loads++
		} else {
			mix.Gathers++
		}
	case ekl.BinaryExpr:
		switch t.Op {
		case "+", "-":
			mix.Adds++
		case "*":
			mix.Muls++
		case "/":
			mix.Divs++
		default:
			mix.Compares++
		}
		countOps(t.L, mix)
		countOps(t.R, mix)
	case ekl.UnaryExpr:
		mix.Adds++
		countOps(t.X, mix)
	case ekl.CallExpr:
		if t.Fn == "select" || t.Fn == "min" || t.Fn == "max" {
			mix.Compares++
		} else {
			mix.Special++
		}
		for _, a := range t.Args {
			countOps(a, mix)
		}
	case ekl.SumExpr:
		mix.Adds++
		countOps(t.Body, mix)
	case ekl.PairExpr:
		countOps(t.A, mix)
		countOps(t.B, mix)
	}
}

func nameWithIndex(name string, i int) string {
	if name == "" {
		name = "kernel"
	}
	return fmt.Sprintf("%s_%d", name, i)
}
