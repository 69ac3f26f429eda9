package hls

import (
	"math/rand"
	"testing"
	"testing/quick"

	"everest/internal/base2"
	"everest/internal/ekl"
	"everest/internal/tensor"
)

func vecKernel(format base2.Format, n int) Kernel {
	return Kernel{
		Name: "axpy",
		Nest: LoopNest{
			TripCounts: []int{n},
			Body:       OpMix{Adds: 1, Muls: 1, Loads: 2, Stores: 1},
		},
		Format: format,
	}
}

func dotKernel(format base2.Format, n int) Kernel {
	return Kernel{
		Name: "dot",
		Nest: LoopNest{
			TripCounts: []int{n},
			Body:       OpMix{Adds: 1, Muls: 1, Loads: 2},
			Reduction:  true,
		},
		Format: format,
	}
}

func TestScheduleValidation(t *testing.T) {
	b := VitisBackend{}
	if _, err := Schedule(Kernel{Name: "empty", Format: base2.Float64{}}, Directives{}, b); err == nil {
		t.Error("empty loop nest must fail")
	}
	bad := vecKernel(base2.Float64{}, 8)
	bad.Nest.TripCounts = []int{0}
	if _, err := Schedule(bad, Directives{}, b); err == nil {
		t.Error("zero trip count must fail")
	}
	posit, _ := base2.NewPositFormat(16, 1)
	if _, err := Schedule(vecKernel(posit, 8), Directives{}, VitisBackend{}); err == nil {
		t.Error("vitis must reject posit formats")
	}
	if _, err := Schedule(vecKernel(posit, 8), Directives{}, BambuBackend{}); err != nil {
		t.Errorf("bambu must accept posit formats: %v", err)
	}
}

func TestPipeliningImprovesLatency(t *testing.T) {
	k := vecKernel(base2.Float64{}, 1024)
	b := VitisBackend{}
	seq, err := Schedule(k, Directives{}, b)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Schedule(k, Directives{PipelineEnabled: true}, b)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.LatencyCycle >= seq.LatencyCycle {
		t.Errorf("pipelining must reduce latency: %d vs %d", pipe.LatencyCycle, seq.LatencyCycle)
	}
	if pipe.II < 1 {
		t.Error("pipelined kernel must report II >= 1")
	}
	// Speedup should approach the iteration depth for long loops.
	speedup := float64(seq.LatencyCycle) / float64(pipe.LatencyCycle)
	if speedup < 3 {
		t.Errorf("pipeline speedup %.2f too small for a 1024-trip loop", speedup)
	}
}

func TestReductionBoundsII(t *testing.T) {
	b := VitisBackend{}
	red, err := Schedule(dotKernel(base2.Float64{}, 512), Directives{PipelineEnabled: true}, b)
	if err != nil {
		t.Fatal(err)
	}
	addLat := b.Cost(OpAdd, base2.Float64{}).Latency
	if red.II < addLat {
		t.Errorf("float reduction II = %d, must be >= add latency %d", red.II, addLat)
	}
	// Fixed-point accumulators are single cycle: II can be 1.
	fx, _ := base2.NewFixedFormat(16, 16)
	redFx, err := Schedule(dotKernel(fx, 512), Directives{PipelineEnabled: true}, b)
	if err != nil {
		t.Fatal(err)
	}
	if redFx.II != 1 {
		t.Errorf("fixed-point reduction II = %d, want 1", redFx.II)
	}
}

func TestUnrollTradesResourcesForLatency(t *testing.T) {
	k := vecKernel(base2.Float32{}, 4096)
	b := VitisBackend{}
	base, _ := Schedule(k, Directives{PipelineEnabled: true}, b)
	un4, err := Schedule(k, Directives{PipelineEnabled: true, Unroll: 4, MemPorts: 16}, b)
	if err != nil {
		t.Fatal(err)
	}
	if un4.LatencyCycle >= base.LatencyCycle {
		t.Errorf("unroll with ports must cut latency: %d vs %d", un4.LatencyCycle, base.LatencyCycle)
	}
	if un4.Resources.DSP <= base.Resources.DSP {
		t.Error("unroll must increase DSP usage")
	}
	// Without extra ports, memory pressure caps the win.
	un4starved, _ := Schedule(k, Directives{PipelineEnabled: true, Unroll: 4, MemPorts: 2}, b)
	if un4starved.II <= un4.II {
		t.Errorf("port starvation must raise II: %d vs %d", un4starved.II, un4.II)
	}
}

func TestFixedCheaperThanF64(t *testing.T) {
	fx, _ := base2.NewFixedFormat(8, 8)
	for _, b := range []Backend{VitisBackend{}, BambuBackend{}} {
		f64, _ := Schedule(vecKernel(base2.Float64{}, 1024), Directives{PipelineEnabled: true}, b)
		fxd, _ := Schedule(vecKernel(fx, 1024), Directives{PipelineEnabled: true}, b)
		if fxd.IterLatency >= f64.IterLatency {
			t.Errorf("%s: fixed16 depth %d must beat f64 depth %d", b.Name(), fxd.IterLatency, f64.IterLatency)
		}
		if fxd.Resources.LUT >= f64.Resources.LUT {
			t.Errorf("%s: fixed16 LUTs %d must beat f64 LUTs %d", b.Name(), fxd.Resources.LUT, f64.Resources.LUT)
		}
		if fxd.ClockMHz <= f64.ClockMHz {
			t.Errorf("%s: fixed16 clock must exceed f64 clock", b.Name())
		}
	}
}

func TestBackendsDiffer(t *testing.T) {
	k := vecKernel(base2.Float64{}, 256)
	v, _ := Schedule(k, Directives{PipelineEnabled: true}, VitisBackend{})
	bb, _ := Schedule(k, Directives{PipelineEnabled: true}, BambuBackend{})
	if v.Resources.DSP <= bb.Resources.DSP {
		t.Error("vitis should be more DSP-hungry than bambu for float")
	}
	if bb.Resources.LUT <= v.Resources.LUT {
		t.Error("bambu should be more LUT-hungry than vitis for float")
	}
}

func TestResourcesHelpers(t *testing.T) {
	a := Resources{LUT: 10, FF: 20, DSP: 2, BRAM: 1}
	b := a.Scale(3)
	if b.LUT != 30 || b.DSP != 6 {
		t.Error("Scale wrong")
	}
	c := a.Add(b)
	if c.FF != 80 {
		t.Error("Add wrong")
	}
	cap := Resources{LUT: 100, FF: 100, DSP: 10, BRAM: 10}
	if !a.FitsIn(cap) || c.FitsIn(Resources{LUT: 1}) {
		t.Error("FitsIn wrong")
	}
	if u := a.Utilization(cap); u != 0.2 {
		t.Errorf("Utilization = %v, want 0.2 (DSP-bound)", u)
	}
}

func TestLatencyMonotoneInTripsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(1000)
		k1 := vecKernel(base2.Float32{}, n)
		k2 := vecKernel(base2.Float32{}, n*2)
		for _, d := range []Directives{{}, {PipelineEnabled: true}} {
			r1, err1 := Schedule(k1, d, VitisBackend{})
			r2, err2 := Schedule(k2, d, VitisBackend{})
			if err1 != nil || err2 != nil || r2.LatencyCycle <= r1.LatencyCycle {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBackendByName(t *testing.T) {
	if b, err := BackendByName("VITIS"); err != nil || b.Name() != "vitis" {
		t.Error("vitis lookup failed")
	}
	if b, err := BackendByName("bambu"); err != nil || b.Name() != "bambu" {
		t.Error("bambu lookup failed")
	}
	if _, err := BackendByName("icarus"); err == nil {
		t.Error("unknown backend must error")
	}
}

const matmulSrc = `
kernel matmul {
  input a : [M, K]
  input b : [K, N]
  c = sum(k) a[i, k] * b[k, j]
  output c[i, j]
}
`

func TestFromEKLKernel(t *testing.T) {
	k, err := ekl.ParseKernel(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bind := ekl.Binding{Tensors: map[string]*tensor.Tensor{
		"a": tensor.Random(rng, -1, 1, 8, 16),
		"b": tensor.Random(rng, -1, 1, 16, 4),
	}}
	_, shapes, err := ekl.Lower(k, bind)
	if err != nil {
		t.Fatal(err)
	}
	hk := FromEKLKernel(k, shapes, base2.Float32{})
	if got := hk.Nest.Trips(); got != 8*16*4 {
		t.Errorf("trip count %d, want 512", got)
	}
	if !hk.Nest.Reduction {
		t.Error("matmul must be detected as a reduction")
	}
	if hk.Nest.Body.Muls == 0 || hk.Nest.Body.Loads == 0 {
		t.Errorf("op mix missing ops: %+v", hk.Nest.Body)
	}
	if hk.BufferBytes == 0 {
		t.Error("buffer footprint must be nonzero")
	}
	if _, err := Schedule(hk, Directives{PipelineEnabled: true}, VitisBackend{}); err != nil {
		t.Errorf("schedule of EKL-derived kernel failed: %v", err)
	}
}
