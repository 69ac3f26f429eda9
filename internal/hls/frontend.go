package hls

import (
	"everest/internal/base2"
	"everest/internal/ekl"
)

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
