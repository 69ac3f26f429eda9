package variants

import (
	"everest/internal/base2"
	"everest/internal/cfdlang"
	"everest/internal/hls"
	"everest/internal/olympus"
	"everest/internal/tensor"
)

// CompileCFDlang runs a legacy-frontend CFDlang program through the same
// variant pipeline: parse, evaluate against synthesized inputs (shape
// specialization), emit the cfdlang MLIR dialect, derive the HLS loop nest
// from the program structure, schedule, generate the system, and derive
// operating points. inputs may be nil — declarations carry concrete
// extents, so a deterministic binding is synthesized from them.
func CompileCFDlang(src, name string, inputs map[string]*tensor.Tensor, opt Options) (*Compiled, error) {
	backend, format, dev, cpu, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	p, err := cfdlang.Parse(src)
	if err != nil {
		return nil, err
	}
	if inputs == nil {
		inputs = SynthesizeInputs(p)
	}
	res, err := p.Run(inputs)
	if err != nil {
		return nil, err
	}
	module, err := p.EmitModule(name)
	if err != nil {
		return nil, err
	}

	hk, inBytes, outBytes := kernelFromProgram(p, name, format)

	var buffers []olympus.Buffer
	elemBytes := int64((format.Bits() + 7) / 8)
	for _, d := range p.Decls {
		phase := 0
		if d.Output {
			phase = 1
		}
		buffers = append(buffers, olympus.Buffer{Bytes: sizeOf(d.Dims) * elemBytes, Phase: phase})
	}
	design, err := olympus.Generate(hk, backend, dev, buffers, opt.Olympus)
	if err != nil {
		return nil, err
	}
	_ = res // evaluation is the semantic check; shapes come from the decls

	c := &Compiled{
		KernelName: name, Frontend: "cfdlang", Program: p,
		Module: module, Report: design.Bitstream.Report, Design: design,
		Flops: CPUFlops(hk.Nest), InputBytes: inBytes, OutputBytes: outBytes,
	}
	c.Points, err = DerivePoints(design, dev, cpu, c.Flops, inBytes, outBytes)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// SynthesizeInputs builds a deterministic binding for every input tensor of
// a CFDlang program from its declared (always concrete) extents.
func SynthesizeInputs(p *cfdlang.Program) map[string]*tensor.Tensor {
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed%1000)/1000 + 0.001
	}
	out := make(map[string]*tensor.Tensor)
	for _, d := range p.Decls {
		if d.Output {
			continue
		}
		t := tensor.New(d.Dims...)
		for i := range t.Data() {
			t.Data()[i] = next()
		}
		out[d.Name] = t
	}
	return out
}

// kernelFromProgram derives the HLS kernel of a CFDlang program: the loop
// nest of the dominant statement (its full pre-contraction iteration
// space), with the op mix aggregated over every statement — the same
// single-accelerator fusion FromEKLKernel applies to EKL kernels.
func kernelFromProgram(p *cfdlang.Program, name string, format base2.Format) (hls.Kernel, int64, int64) {
	var nest hls.LoopNest
	var domTrips int64 = -1
	var mix hls.OpMix
	for _, s := range p.Stmts {
		shape, reduces := iterSpace(p, s.RHS)
		trips := int64(1)
		for _, d := range shape {
			trips *= int64(d)
		}
		if trips > domTrips {
			domTrips = trips
			nest.TripCounts = append([]int(nil), shape...)
			nest.Reduction = reduces
		}
		countProgramOps(s.RHS, &mix)
		mix.Stores++
	}
	if len(nest.TripCounts) == 0 {
		nest.TripCounts = []int{1}
	}
	nest.Body = mix

	elemBytes := int64((format.Bits() + 7) / 8)
	var inBytes, outBytes int64
	var bufBytes int64
	for _, d := range p.Decls {
		n := sizeOf(d.Dims) * elemBytes
		bufBytes += n
		if d.Output {
			outBytes += n
		} else {
			inBytes += n
		}
	}
	return hls.Kernel{Name: name, Nest: nest, Format: format, BufferBytes: bufBytes}, inBytes, outBytes
}

// iterSpace returns the full iteration space of an expression — contracted
// dimensions included, since the hardware loops over them — and whether any
// contraction (a reduction) occurs.
func iterSpace(p *cfdlang.Program, e cfdlang.Expr) ([]int, bool) {
	switch t := e.(type) {
	case cfdlang.Ref:
		if d := p.Decl(t.Name); d != nil {
			return append([]int(nil), d.Dims...), false
		}
		return nil, false
	case cfdlang.Binary:
		l, lr := iterSpace(p, t.L)
		r, rr := iterSpace(p, t.R)
		if t.Op == "*" { // tensor product: dims concatenate
			return append(l, r...), lr || rr
		}
		return l, lr || rr // elementwise: shapes coincide
	case cfdlang.Contract:
		// The paired dimensions iterate in lockstep (i == j), so each pair
		// contributes one loop: drop the second member of every pair.
		inner, _ := iterSpace(p, t.X)
		drop := make(map[int]bool, len(t.Pairs))
		for _, pr := range t.Pairs {
			drop[pr[1]-1] = true
		}
		var out []int
		for i, d := range inner {
			if !drop[i] {
				out = append(out, d)
			}
		}
		return out, true
	}
	return nil, false
}

// countProgramOps accumulates the per-output-element op mix of one
// expression tree.
func countProgramOps(e cfdlang.Expr, mix *hls.OpMix) {
	switch t := e.(type) {
	case cfdlang.Ref:
		mix.Loads++
	case cfdlang.Binary:
		if t.Op == "*" {
			mix.Muls++
		} else {
			mix.Adds++
		}
		countProgramOps(t.L, mix)
		countProgramOps(t.R, mix)
	case cfdlang.Contract:
		mix.Adds++ // the accumulator of the contraction
		countProgramOps(t.X, mix)
	}
}

func sizeOf(dims []int) int64 {
	n := int64(1)
	for _, d := range dims {
		n *= int64(d)
	}
	return n
}
