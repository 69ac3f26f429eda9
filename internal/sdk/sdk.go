// Package sdk is the EVEREST SDK façade (paper §IV): the single point of
// access wrapped by the basecamp command. It composes the data-driven
// compilation framework (ekl → MLIR → HLS → Olympus), the deployment layer
// (bitstream registry + LEXIS-style descriptors), and the virtualized
// runtime (cluster, resource manager, autotuner). The engine tier has no
// front of its own: callers drive runtime.Engine directly, and TallyOf
// accounts its futures per tenant.
package sdk

import (
	"fmt"

	"everest/internal/base2"
	"everest/internal/ekl"
	"everest/internal/hls"
	"everest/internal/mlir"
	"everest/internal/netsim"
	"everest/internal/olympus"
	"everest/internal/platform"
	"everest/internal/variants"
)

// CompileOptions selects the flow configuration for one kernel.
type CompileOptions struct {
	Backend string       // "vitis" or "bambu" (default vitis)
	Format  base2.Format // datapath format (default f32)
	Device  string       // target device name (default alveo-u55c)
	// Olympus holds the system-generation knobs, including the PLM
	// banking assumption (olympus.Options.MemPorts).
	Olympus olympus.Options
}

// CompileResult is everything the flow produced for one kernel.
type CompileResult struct {
	Kernel    *ekl.Kernel
	Module    *mlir.Module // lowered EKL module (ekl -> teil -> affine)
	HLSKernel hls.Kernel
	Report    hls.Report
	Design    *olympus.Design
	PassStats []mlir.PassStat
	// Compiled is the underlying variant-pipeline result: the derived
	// workload model and the cpu1/cpu16/fpga operating points.
	Compiled *variants.Compiled
}

// Compile runs the full data-driven compilation flow of §V on an EKL kernel
// source: parse/check, shape-specialize against the binding, lower through
// the MLIR dialect stack, HLS-schedule, and generate the FPGA system
// architecture. It delegates to the variant-generation pipeline
// (internal/variants), so the result also carries the derived operating
// points that seed the adaptive runtime's tuners.
func Compile(src string, binding ekl.Binding, opt CompileOptions) (*CompileResult, error) {
	c, err := variants.CompileEKL(src, binding, variants.Options{
		Backend: opt.Backend, Format: opt.Format, Device: opt.Device,
		Olympus: opt.Olympus,
	})
	if err != nil {
		return nil, err
	}
	return &CompileResult{
		Kernel: c.Kernel, Module: c.Module, HLSKernel: c.HLSKernel,
		Report: c.Report, Design: c.Design, PassStats: c.PassStats,
		Compiled: c,
	}, nil
}

// SDK bundles the runtime-side state: the bitstream registry and cluster.
// The SDK owns its registry, which takes no lock: writes go through
// Publish, one call at a time, and no engine reads it.
type SDK struct {
	Registry *platform.Registry
	Cluster  *platform.Cluster
}

// New builds an SDK instance over a cluster.
func New(cluster *platform.Cluster) *SDK {
	return &SDK{Registry: platform.NewRegistry(), Cluster: cluster}
}

// DefaultCluster builds the paper-like testbed: `n` Xeon nodes with one
// Alveo U55C each, plus one network-attached cloudFPGA node.
func DefaultCluster(n int) *platform.Cluster {
	var nodes []*platform.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, platform.NewNode(fmt.Sprintf("node%02d", i),
			platform.XeonModel(), platform.AlveoU55C()))
	}
	nodes = append(nodes, platform.NewNode("cloudfpga0", platform.EPYCModel(), platform.CloudFPGA()))
	return platform.NewCluster(nodes...)
}

// stackByName resolves a netsim stack name; "" means no stack (the flat
// cluster fabric, or the tier's default fabric).
func stackByName(name string) (*netsim.Stack, error) {
	if name == "" {
		return nil, nil
	}
	st, err := netsim.StackByName(name)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Publish stores a compiled design's bitstream in the registry.
func (s *SDK) Publish(res *CompileResult) error {
	return s.Registry.Put(res.Design.Bitstream)
}

// Deploy stages a bitstream onto the named node and returns the staging
// time.
func (s *SDK) Deploy(bitstreamID, node string) (float64, error) {
	bs, err := s.Registry.Get(bitstreamID)
	if err != nil {
		return 0, err
	}
	n := s.Cluster.FindNode(node)
	if n == nil {
		return 0, fmt.Errorf("sdk: unknown node %q", node)
	}
	for idx := range n.Devices {
		if dt, err := n.Program(idx, -1, bs); err == nil {
			return dt, nil
		}
	}
	return 0, fmt.Errorf("sdk: no device on %q fits bitstream %q", node, bitstreamID)
}

// Placement is one CPU/FPGA allocation choice for a sub-kernel (E10).
type Placement struct {
	Stage   string
	Target  string  // "cpu" or "fpga"
	TimeSec float64 // modelled execution time
}

// StageCost describes one pipeline stage for placement exploration.
type StageCost struct {
	Name        string
	Flops       float64 // software work
	Offloadable bool
	// FPGA costs (only used when Offloadable).
	Kernel   hls.Kernel
	BytesIn  int64
	BytesOut int64
}

// ExplorePlacement decides, at compile time, where to run each stage of a
// pipeline: it compares the modelled CPU time against the FPGA time
// (including transfers and per-batch reconfiguration) and picks the faster
// target — the §VIII "transparently decide at compile time where to
// allocate the kernels (FPGA or CPU)" exploration. An FPGA placement pays
// the device's whole-device reconfiguration once per batch
// (Device.StagingCost: an XRT xclbin load, 120 ms on an Alveo), which
// keeps small batches on the CPU.
func ExplorePlacement(stages []StageCost, cpu platform.CPUModel, dev *platform.Device, backend hls.Backend) ([]Placement, error) {
	_, reconfig := dev.StagingCost(-1)
	var out []Placement
	for _, st := range stages {
		cpuTime := cpu.TimeSeconds(st.Flops, st.BytesIn+st.BytesOut, 1)
		choice := Placement{Stage: st.Name, Target: "cpu", TimeSec: cpuTime}
		if st.Offloadable {
			design, err := olympus.Generate(st.Kernel, backend, dev, nil, olympus.Options{
				SharePLM: true, DoubleBuffer: true, Replicate: true, MaxReplicas: 8, PackData: true,
			})
			if err == nil {
				tl, err := platform.Execute(dev, design.Bitstream, platform.Workload{
					BytesIn: st.BytesIn, BytesOut: st.BytesOut, Batches: 4,
				})
				if err == nil && reconfig+tl.Total < cpuTime {
					choice = Placement{Stage: st.Name, Target: "fpga", TimeSec: reconfig + tl.Total}
				}
			}
		}
		out = append(out, choice)
	}
	return out, nil
}
