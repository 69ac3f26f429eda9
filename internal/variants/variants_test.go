package variants

import (
	"math"
	"testing"

	"everest/internal/base2"
	"everest/internal/cfdlang"
	"everest/internal/ekl"
	"everest/internal/hls"
	"everest/internal/platform"
	"everest/internal/runtime"
)

func fixedOpt(t *testing.T) Options {
	t.Helper()
	f, err := base2.NewFixedFormat(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Format: f}
	o.Olympus.MemPorts = 8
	o.Olympus.SharePLM = true
	o.Olympus.DoubleBuffer = true
	o.Olympus.Replicate = true
	o.Olympus.MaxReplicas = 8
	o.Olympus.PackData = true
	return o
}

// scheduledNest rebuilds the loop nest CompileEKL schedules for example
// name under opt: the HLS kernel the operating points derive from.
func scheduledNest(t *testing.T, name string, opt Options) hls.LoopNest {
	t.Helper()
	_, format, _, _, err := opt.normalize()
	if err != nil {
		t.Fatal(err)
	}
	src, binding, err := ExampleKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	_, shapes, err := ekl.Lower(k, binding)
	if err != nil {
		t.Fatal(err)
	}
	return hls.FromEKLKernel(k, shapes, format).Nest
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12+1e-9*math.Abs(b)
}

// TestOperatingPointsDerivedFromSchedule is the acceptance assertion of the
// compiled path: every latency the tuner is seeded with is recomputed here
// from the compilation artifacts — the HLS schedule for the fpga variant,
// the CPU cost model over the scheduled loop nest for the software
// variants — with no hand-declared number anywhere.
func TestOperatingPointsDerivedFromSchedule(t *testing.T) {
	c, err := CompileExample("windpower", fixedOpt(t))
	if err != nil {
		t.Fatal(err)
	}
	nest := scheduledNest(t, "windpower", fixedOpt(t))

	// The bitstream the runtime executes embeds the exact schedule the
	// compiler produced: the runtime's fpga cost IS the HLS report.
	if c.Design.Bitstream.Report != c.Report {
		t.Fatalf("bitstream embeds report %+v, compiler produced %+v", c.Design.Bitstream.Report, c.Report)
	}

	// The schedule itself follows from the kernel's loop nest: with II=1
	// (banked ports + single-cycle fixed accumulate) the cycle count is
	// (trips-1)*II + depth. Trips come from the windpower binding extents.
	trips := int64(96 * 192 * 12)
	if got := nest.Trips(); got != trips {
		t.Fatalf("nest trips = %d, want N*M*D = %d", got, trips)
	}
	if c.Report.II != 1 {
		t.Fatalf("II = %d, want 1 under 8 ports + fixed point", c.Report.II)
	}
	wantCycles := (trips-1)*int64(c.Report.II) + int64(c.Report.IterLatency)
	if c.Report.LatencyCycle != wantCycles {
		t.Fatalf("schedule latency %d, want (trips-1)*II+depth = %d", c.Report.LatencyCycle, wantCycles)
	}

	// fpga point == executing that schedule on the target device model
	// with the kernel's own transfer footprint.
	dev, err := platform.DeviceByName(c.Design.Bitstream.Target)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := platform.Execute(dev, c.Design.Bitstream, platform.Workload{
		BytesIn: c.InputBytes, BytesOut: c.OutputBytes, Batches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fpga, ok := c.Point(runtime.VariantFPGA.String())
	if !ok {
		t.Fatal("no fpga operating point")
	}
	if !approx(fpga.LatencySeconds, tl.Total) {
		t.Fatalf("fpga point %.6g != executed schedule %.6g", fpga.LatencySeconds, tl.Total)
	}
	if fpga.DeviceClass != "alveo-u55c" {
		t.Fatalf("fpga device class %q", fpga.DeviceClass)
	}
	if fpga.Resources != c.Design.Bitstream.TotalResources() {
		t.Fatalf("fpga point resources %v != bitstream footprint %v", fpga.Resources, c.Design.Bitstream.TotalResources())
	}

	// Software points == CPU cost model over the scheduled nest.
	wantFlops := CPUFlops(nest)
	if c.Flops != wantFlops {
		t.Fatalf("derived flops %.6g != cost model %.6g", c.Flops, wantFlops)
	}
	cpu := platform.XeonModel()
	bytes := c.InputBytes + c.OutputBytes
	for _, tc := range []struct {
		variant string
		cores   int
	}{{runtime.VariantCPU1.String(), 1}, {runtime.VariantCPU16.String(), 16}} {
		p, ok := c.Point(tc.variant)
		if !ok {
			t.Fatalf("no %s point", tc.variant)
		}
		want := cpu.TimeSeconds(wantFlops, bytes, tc.cores)
		if !approx(p.LatencySeconds, want) {
			t.Fatalf("%s point %.6g != cost model %.6g", tc.variant, p.LatencySeconds, want)
		}
	}

	// The tuner seeds are exactly the points in ms.
	for _, v := range c.Variants() {
		p, _ := c.Point(v.Name)
		if !approx(v.ExpectedMs, p.LatencySeconds*1000) {
			t.Fatalf("tuner seed %s = %.6g ms, point says %.6g ms", v.Name, v.ExpectedMs, p.LatencySeconds*1000)
		}
	}
}

// TestFormatFlipsTheWinner: the same windpower kernel compiled for an f32
// datapath (5-cycle accumulator feedback, default dual-port PLMs) yields an
// fpga point that loses to cpu16 — and the tuner's choice makes that
// observable — while the fixed-point, banked compilation wins.
func TestFormatFlipsTheWinner(t *testing.T) {
	slow, err := CompileExample("windpower", Options{}) // f32, 2 ports, 1 replica
	if err != nil {
		t.Fatal(err)
	}
	slowTuner, err := slow.NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	if best := slowTuner.Best(); best != runtime.VariantCPU16.String() {
		t.Fatalf("f32 compile: tuner best = %s, want cpu16 (fpga should lose)", best)
	}
	if _, ok := slowTuner.Index(runtime.VariantFPGA.String()); !ok {
		t.Fatal("fpga variant should exist (and lose), not be absent")
	}

	fast, err := CompileExample("windpower", fixedOpt(t))
	if err != nil {
		t.Fatal(err)
	}
	fastTuner, err := fast.NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	if best := fastTuner.Best(); best != runtime.VariantFPGA.String() {
		t.Fatalf("fixed16 compile: tuner best = %s, want fpga", best)
	}
}

func TestTaskSpecIsDerived(t *testing.T) {
	c, err := CompileExample("airquality", fixedOpt(t))
	if err != nil {
		t.Fatal(err)
	}
	spec := c.Task("calib", "prep")
	if spec.Flops != c.Flops || spec.InputBytes != c.InputBytes || spec.OutputBytes != c.OutputBytes {
		t.Fatalf("task workload %+v not derived from compilation %+v", spec, c)
	}
	if !spec.NeedsFPGA || spec.BitstreamID != c.Design.Bitstream.ID {
		t.Fatalf("task offload request %+v not bound to the compiled bitstream", spec)
	}
	if len(spec.Deps) != 1 || spec.Deps[0] != "prep" {
		t.Fatalf("deps = %v", spec.Deps)
	}
}

func TestCompileCFDlangMatmul(t *testing.T) {
	c, err := CompileCFDlang(MatmulCFD(), "matmul", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Frontend != "cfdlang" || c.Kernel != nil {
		t.Fatalf("frontend %q kernel %v", c.Frontend, c.Kernel)
	}
	// C = (A x B) contracted over [2 3]: the contracted pair iterates in
	// lockstep, so the nest is 64 x 96 x 48 — not the rank-4 product space.
	p, err := cfdlang.Parse(MatmulCFD())
	if err != nil {
		t.Fatal(err)
	}
	_, format, _, _, err := Options{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	hk, _, _ := kernelFromProgram(p, "matmul", format)
	if got := hk.Nest.Trips(); got != 64*96*48 {
		t.Fatalf("matmul trips = %d, want %d", got, 64*96*48)
	}
	if !hk.Nest.Reduction {
		t.Fatal("contraction must mark the nest as a reduction")
	}
	if c.Flops != CPUFlops(hk.Nest) {
		t.Fatalf("derived flops %.6g != cost model %.6g", c.Flops, CPUFlops(hk.Nest))
	}
	wantCycles := (hk.Nest.Trips()-1)*int64(c.Report.II) + int64(c.Report.IterLatency)
	if c.Report.LatencyCycle != wantCycles {
		t.Fatalf("latency %d, want %d", c.Report.LatencyCycle, wantCycles)
	}
	if _, ok := c.Point(runtime.VariantCPU16.String()); !ok {
		t.Fatal("missing cpu16 point")
	}
	if err := c.Module.Verify(); err != nil {
		t.Fatalf("emitted module does not verify: %v", err)
	}
}

func TestExampleKernelsCompileAndRoundTrip(t *testing.T) {
	for _, name := range ExampleNames() {
		src, binding, err := ExampleKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		k, err := ekl.ParseKernel(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The canonical printer round-trips.
		k2, err := ekl.ParseKernel(k.Source())
		if err != nil {
			t.Fatalf("%s: reparse of printed source: %v", name, err)
		}
		if k.Source() != k2.Source() {
			t.Fatalf("%s: print -> parse -> print unstable", name)
		}
		// And the kernel actually runs under its binding.
		if _, err := k.Run(binding); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, _, err := ExampleKernel("nope"); err == nil {
		t.Fatal("unknown example should error")
	}
}

func TestOptionErrors(t *testing.T) {
	if _, err := CompileEKL("kernel k {", ekl.Binding{}, Options{}); err == nil {
		t.Fatal("bad source should error")
	}
	if _, err := CompileExample("windpower", Options{Backend: "nope"}); err == nil {
		t.Fatal("bad backend should error")
	}
	if _, err := CompileExample("windpower", Options{Device: "nope"}); err == nil {
		t.Fatal("bad device should error")
	}
	if _, err := CompileCFDlang("not cfdlang", "x", nil, Options{}); err == nil {
		t.Fatal("bad cfdlang source should error")
	}
}

func TestCPUFlopsWeighting(t *testing.T) {
	base := hls.LoopNest{TripCounts: []int{10}, Body: hls.OpMix{Adds: 2, Muls: 3, Compares: 1}}
	if got := CPUFlops(base); got != 60 {
		t.Fatalf("plain mix = %g, want 60", got)
	}
	heavy := hls.LoopNest{TripCounts: []int{10}, Body: hls.OpMix{Divs: 1, Special: 2}}
	if got := CPUFlops(heavy); got != float64(10*(divFlops+2*specialFlops)) {
		t.Fatalf("weighted mix = %g", got)
	}
	empty := hls.LoopNest{TripCounts: []int{7}, Body: hls.OpMix{Loads: 3}}
	if got := CPUFlops(empty); got != 7 {
		t.Fatalf("memory-only mix = %g, want one flop per iteration floor", got)
	}
}
