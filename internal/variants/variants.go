// Package variants closes the loop between the EVEREST compilation flow and
// the adaptive runtime (paper §IV–§VI): it carries one kernel from DSL
// source — EKL or the legacy CFDlang frontend — through the MLIR dialect
// stack and HLS scheduling to a set of implementation variants (cpu1 /
// cpu16 / fpga) whose operating points are *derived* rather than declared:
// the fpga point from the HLS schedule executed on the target device model,
// the software points from a CPU cost model over the kernel's loop nest.
// The points seed autotuner.Tuner instances through
// runtime.Workflow.SetVariants, so runtime.Engine places compiler-produced
// variants end to end with no hand-written latency anywhere on the path.
package variants

import (
	"fmt"

	"everest/internal/autotuner"
	"everest/internal/base2"
	"everest/internal/cfdlang"
	"everest/internal/ekl"
	"everest/internal/hls"
	"everest/internal/mlir"
	"everest/internal/olympus"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// Options configures one compilation.
type Options struct {
	Backend string            // "vitis" or "bambu" (default vitis)
	Format  base2.Format      // datapath format (default f32)
	Device  string            // target device name (default alveo-u55c)
	CPU     platform.CPUModel // software reference (zero value = XeonModel)
	// Olympus holds the system-generation knobs, including
	// olympus.Options.MemPorts — the PLM banking assumption that lifts the
	// memory-pressure floor on the initiation interval.
	Olympus olympus.Options
}

func (o Options) normalize() (hls.Backend, base2.Format, *platform.Device, platform.CPUModel, error) {
	name := o.Backend
	if name == "" {
		name = "vitis"
	}
	backend, err := hls.BackendByName(name)
	if err != nil {
		return nil, nil, nil, platform.CPUModel{}, err
	}
	format := o.Format
	if format == nil {
		format = base2.Float32{}
	}
	devName := o.Device
	if devName == "" {
		devName = "alveo-u55c"
	}
	dev, err := platform.DeviceByName(devName)
	if err != nil {
		return nil, nil, nil, platform.CPUModel{}, err
	}
	cpu := o.CPU
	if cpu.GFLOPs <= 0 {
		cpu = platform.XeonModel()
	}
	return backend, format, dev, cpu, nil
}

// OperatingPoint is one implementation variant's derived characteristics.
type OperatingPoint struct {
	Variant        string  // the name of runtime.VariantCPU1, VariantCPU16 or VariantFPGA
	LatencySeconds float64 // expected execution latency of one kernel run
	// BoundSeconds is the variant's proven worst-case latency under nominal
	// load: the schedule-derived WCET priced through the device timeline for
	// the fpga variant, the deterministic cost model itself for software
	// (load factors are applied by admission, not here). Invariant:
	// LatencySeconds <= BoundSeconds.
	BoundSeconds float64
	Cores        int // software parallelism (cpu variants)
	// FPGA-only fields.
	Resources   hls.Resources // post-Olympus footprint of the bitstream
	DeviceClass string        // device the bitstream targets
}

// Compiled is the result of one source-to-schedule compilation.
type Compiled struct {
	KernelName string
	Frontend   string          // "ekl" or "cfdlang"
	Module     *mlir.Module    // lowered module (frontend -> teil -> affine)
	Report     hls.Report      // HLS schedule of one accelerator instance
	Design     *olympus.Design // generated system (bitstream carries Report)
	PassStats  []mlir.PassStat
	Kernel     *ekl.Kernel      // EKL frontend only (nil for cfdlang)
	Program    *cfdlang.Program // CFDlang frontend only (nil for ekl)

	// Derived workload model: what one kernel execution costs in software
	// terms, read off the scheduled loop nest — never hand-declared.
	Flops       float64 // CPU cost model flops (op mix x trips, weighted)
	InputBytes  int64
	OutputBytes int64

	Points []OperatingPoint
}

// Point returns the operating point of a variant.
func (c *Compiled) Point(variant string) (OperatingPoint, bool) {
	for _, p := range c.Points {
		if p.Variant == variant {
			return p, true
		}
	}
	return OperatingPoint{}, false
}

// Variants converts the operating points into autotuner seeds (expected
// and worst-case latency in ms), ready for runtime.Workflow.SetVariants.
func (c *Compiled) Variants() []autotuner.Variant {
	out := make([]autotuner.Variant, 0, len(c.Points))
	for _, p := range c.Points {
		ms := p.LatencySeconds * 1000
		if ms <= 0 {
			ms = 1e-6
		}
		boundMs := p.BoundSeconds * 1000
		if boundMs < ms {
			boundMs = ms
		}
		out = append(out, autotuner.Variant{Name: p.Variant, ExpectedMs: ms, BoundMs: boundMs})
	}
	return out
}

// NewTuner builds a variant tuner seeded from the compiled operating points.
func (c *Compiled) NewTuner() (*autotuner.Tuner, error) {
	return autotuner.NewTuner(c.Variants())
}

// Task returns a workflow task whose software cost model and FPGA offload
// request all come from this compilation: the design-time path prices it
// with the derived flops/bytes, and FPGA placements execute the generated
// bitstream (whose latency is the HLS schedule).
func (c *Compiled) Task(name string, deps ...string) runtime.TaskSpec {
	return runtime.TaskSpec{
		Name: name, Deps: deps,
		Flops:       c.Flops,
		InputBytes:  c.InputBytes,
		OutputBytes: c.OutputBytes,
		Cores:       1,
		NeedsFPGA:   true,
		BitstreamID: c.Design.Bitstream.ID,
	}
}

// Software expansion factors of the CPU cost model: a division or an
// exp/log/sqrt-class call retires as an iterative / polynomial sequence on
// a CPU core, not as one flop. The FPGA pays these through the backend
// latency tables instead, which is what opens the offload win for
// special-function-heavy kernels (PTDR, RRTMG) and keeps it closed for
// plain linear algebra — the crossover E-compile schedules around.
const (
	divFlops     = 8
	specialFlops = 20
)

// CPUFlops is the CPU cost model over a scheduled loop nest: the effective
// software flop count of one kernel execution.
func CPUFlops(nest hls.LoopNest) float64 {
	m := nest.Body
	perIter := float64(m.Adds+m.Muls+m.Compares) +
		divFlops*float64(m.Divs) + specialFlops*float64(m.Special)
	if perIter < 1 {
		perIter = 1
	}
	return perIter * float64(nest.Trips())
}

// CompileEKL runs the EKL source through the full flow (parse/check,
// shape-specialize against the binding, lower ekl -> teil -> affine,
// HLS-schedule, generate the system architecture) and derives the variant
// operating points.
func CompileEKL(src string, binding ekl.Binding, opt Options) (*Compiled, error) {
	backend, format, dev, cpu, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	k, err := ekl.ParseKernel(src)
	if err != nil {
		return nil, err
	}
	if err := k.Check(); err != nil {
		return nil, err
	}
	module, shapes, err := ekl.Lower(k, binding)
	if err != nil {
		return nil, err
	}
	pm := mlir.NewPassManager().Add(ekl.LowerToTeIL(), ekl.LowerToAffine())
	if err := pm.Run(module); err != nil {
		return nil, err
	}

	hk := hls.FromEKLKernel(k, shapes, format)

	// PLM planning: inputs phase 0, outputs phase 1 (as the SDK façade does).
	var buffers []olympus.Buffer
	elemBytes := int64((format.Bits() + 7) / 8)
	var inBytes, outBytes int64
	for _, in := range k.Inputs {
		n := int64(shapes.Size(in.Name)) * elemBytes
		inBytes += n
		buffers = append(buffers, olympus.Buffer{Bytes: n, Phase: 0})
	}
	for _, out := range k.Outputs {
		n := int64(shapes.Size(out.Name)) * elemBytes
		outBytes += n
		buffers = append(buffers, olympus.Buffer{Bytes: n, Phase: 1})
	}
	design, err := olympus.Generate(hk, backend, dev, buffers, opt.Olympus)
	if err != nil {
		return nil, err
	}

	c := &Compiled{
		KernelName: k.Name, Frontend: "ekl",
		// The report is the one inside the generated bitstream: what the
		// runtime executes is exactly what the compiler scheduled.
		Module: module, Report: design.Bitstream.Report, Design: design,
		PassStats: pm.Stats, Kernel: k,
		Flops: CPUFlops(hk.Nest), InputBytes: inBytes, OutputBytes: outBytes,
	}
	c.Points, err = DerivePoints(design, dev, cpu, c.Flops, inBytes, outBytes)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// DerivePoints computes the variant operating points from compilation
// artifacts only: software latencies from the CPU cost model over the
// derived flops, the fpga latency by executing the generated bitstream —
// whose cycle count is the HLS schedule — on the target device model with
// the kernel's own transfer footprint. The workload shape (4 batches)
// matches what the engine's executors price at dispatch, so the seed and
// the live cost agree when the environment is nominal.
func DerivePoints(design *olympus.Design, dev *platform.Device, cpu platform.CPUModel, flops float64, inBytes, outBytes int64) ([]OperatingPoint, error) {
	bytes := inBytes + outBytes
	cpu1 := cpu.TimeSeconds(flops, bytes, 1)
	cpu16 := cpu.TimeSeconds(flops, bytes, 16)
	points := []OperatingPoint{
		{Variant: runtime.VariantCPU1.String(), LatencySeconds: cpu1, BoundSeconds: cpu1, Cores: 1},
		{Variant: runtime.VariantCPU16.String(), LatencySeconds: cpu16, BoundSeconds: cpu16, Cores: 16},
	}
	wl := platform.Workload{BytesIn: inBytes, BytesOut: outBytes, Batches: 4}
	tl, err := platform.Execute(dev, design.Bitstream, wl)
	if err != nil {
		// A design that does not execute on the device class (e.g. it no
		// longer fits) simply yields no fpga variant; the software points
		// still stand.
		return points, nil //nolint:nilerr
	}
	// The fpga bound re-prices the same timeline at the schedule's WCET —
	// derived from the same Report the bitstream carries, never declared.
	bound, err := platform.ExecuteBound(dev, design.Bitstream, wl)
	if err != nil {
		return nil, err // Execute succeeded, so this can only be a model bug
	}
	points = append(points, OperatingPoint{
		Variant:        runtime.VariantFPGA.String(),
		LatencySeconds: tl.Total,
		BoundSeconds:   bound.Total,
		Resources:      design.Bitstream.TotalResources(),
		DeviceClass:    design.Bitstream.Target,
	})
	return points, nil
}

// Summary renders the operating points as stable text rows (basecamp).
func (c *Compiled) Summary() []string {
	rows := make([]string, 0, len(c.Points))
	for _, p := range c.Points {
		switch p.Variant {
		case runtime.VariantFPGA.String():
			rows = append(rows, fmt.Sprintf("%-6s : %10.4gms  (%s, %s)",
				p.Variant, p.LatencySeconds*1000, p.DeviceClass, p.Resources))
		default:
			rows = append(rows, fmt.Sprintf("%-6s : %10.4gms  (%d cores)",
				p.Variant, p.LatencySeconds*1000, p.Cores))
		}
	}
	return rows
}
