// Package hls models the high-level-synthesis stage of the EVEREST SDK
// (paper §IV): turning loop-nest kernels into hardware implementations with
// predictable latency and resource usage.
//
// The paper's SDK drives two real HLS engines — AMD Vitis HLS and the
// open-source Bambu compiler [6] — behind one interface. This package keeps
// that structure: a Backend supplies per-operator latency/resource cost
// tables (calibrated to the public characteristics of each tool: Vitis maps
// arithmetic onto DSP slices aggressively, Bambu generates LUT-heavier
// datapaths and supports custom formats like posits natively), and Schedule
// applies classic HLS scheduling: loop pipelining with an initiation
// interval bounded by resource pressure and reduction recurrences, optional
// unrolling, and balanced-tree operator chaining.
//
// The output Report is what Olympus (system generation) and the platform
// simulator consume; absolute cycle counts are model values, but the
// relations the experiments check (pipelining wins, fixed-point is cheaper
// than fp64, unrolling trades DSPs for latency) follow from the same
// mechanics that drive the real tools.
package hls

import (
	"fmt"
	"math"

	"everest/internal/base2"
)

// OpMix counts the operations of one innermost-loop iteration.
type OpMix struct {
	Adds     int // additions/subtractions
	Muls     int // multiplications
	Divs     int // divisions
	Compares int // comparisons/selects
	Special  int // exp/log/sqrt-class operators
	Loads    int // memory reads
	Stores   int // memory writes
	Gathers  int // data-dependent (irregular) reads
}

// LoopNest is a perfect loop nest with the per-iteration operation mix.
type LoopNest struct {
	TripCounts []int // outermost first
	Body       OpMix
	// Reduction marks the innermost loop as a reduction (loop-carried
	// dependence through an accumulator), which bounds the pipeline II.
	Reduction bool
}

// Trips returns the product of all trip counts.
func (n LoopNest) Trips() int64 {
	t := int64(1)
	for _, c := range n.TripCounts {
		t *= int64(c)
	}
	return t
}

// Kernel is the unit of HLS compilation.
type Kernel struct {
	Name   string
	Nest   LoopNest
	Format base2.Format // datapath number format
	// BufferBytes is the total on-chip buffer footprint the kernel needs
	// (PLMs); Olympus may later share or double them.
	BufferBytes int64
}

// Directives are the synthesis knobs (the "pragmas").
type Directives struct {
	PipelineEnabled bool
	TargetII        int // 0 means "best achievable"
	Unroll          int // innermost unroll factor; 0/1 means none
	MemPorts        int // concurrent memory ports available; 0 means 2
}

// Resources is the FPGA resource vector.
type Resources struct {
	LUT  int
	FF   int
	DSP  int
	BRAM int // BRAM18 blocks
}

// Add returns the component-wise sum.
func (r Resources) Add(o Resources) Resources {
	return Resources{LUT: r.LUT + o.LUT, FF: r.FF + o.FF, DSP: r.DSP + o.DSP, BRAM: r.BRAM + o.BRAM}
}

// Scale returns the resource vector multiplied by k.
func (r Resources) Scale(k int) Resources {
	return Resources{LUT: r.LUT * k, FF: r.FF * k, DSP: r.DSP * k, BRAM: r.BRAM * k}
}

// FitsIn reports whether r fits within capacity c.
func (r Resources) FitsIn(c Resources) bool {
	return r.LUT <= c.LUT && r.FF <= c.FF && r.DSP <= c.DSP && r.BRAM <= c.BRAM
}

// Utilization returns the maximum fractional utilization across resource
// classes (1.0 = a class fully used).
func (r Resources) Utilization(c Resources) float64 {
	u := 0.0
	if c.LUT > 0 {
		u = math.Max(u, float64(r.LUT)/float64(c.LUT))
	}
	if c.FF > 0 {
		u = math.Max(u, float64(r.FF)/float64(c.FF))
	}
	if c.DSP > 0 {
		u = math.Max(u, float64(r.DSP)/float64(c.DSP))
	}
	if c.BRAM > 0 {
		u = math.Max(u, float64(r.BRAM)/float64(c.BRAM))
	}
	return u
}

func (r Resources) String() string {
	return fmt.Sprintf("LUT=%d FF=%d DSP=%d BRAM=%d", r.LUT, r.FF, r.DSP, r.BRAM)
}

// Report is the synthesis result for one kernel.
type Report struct {
	Kernel       string
	Backend      string
	LatencyCycle int64 // total kernel latency in cycles
	// WCETCycle is the proven worst-case execution time of the schedule in
	// cycles: the pipelined latency with zero overlap across outer-loop
	// boundaries plus one control cycle per boundary (JUNIPER-style
	// schedule-derived bound). Invariant: LatencyCycle <= WCETCycle.
	WCETCycle   int64
	II          int // achieved initiation interval (0 if not pipelined)
	IterLatency int // latency of one iteration (pipeline depth)
	Resources   Resources
	ClockMHz    float64
	Directives  Directives
}

func (r Report) String() string {
	return fmt.Sprintf("%s[%s]: %d cycles (II=%d, depth=%d) @%.0fMHz, %s",
		r.Kernel, r.Backend, r.LatencyCycle, r.II, r.IterLatency, r.ClockMHz, r.Resources)
}
