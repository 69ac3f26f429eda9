package hls

import (
	"math/rand"
	"testing"
	"testing/quick"

	"everest/internal/base2"
	"everest/internal/ekl"
	"everest/internal/tensor"
)

// sweepFormats is the base2 format ladder the WCET soundness tests sweep:
// the E4 fixed/minifloat ladder plus posits (bambu-only).
func sweepFormats(t testing.TB) []base2.Format {
	fx412, err := base2.NewFixedFormat(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	fx1616, err := base2.NewFixedFormat(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	posit16, err := base2.NewPositFormat(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	posit32, err := base2.NewPositFormat(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []base2.Format{
		base2.Float64{}, base2.Float32{},
		base2.FP16(), base2.BF16(), base2.MiniFloat{Label: "fp8e4m3", ExpBits: 4, FracBits: 3},
		fx412, fx1616, posit16, posit32,
	}
}

// checkWCET asserts the Report bound invariants: a positive bound that
// dominates the achieved latency, with equality for sequential schedules
// (nothing overlaps, so the schedule is its own worst case).
func checkWCET(t *testing.T, rep Report) {
	t.Helper()
	if rep.WCETCycle <= 0 {
		t.Fatalf("%s: WCETCycle = %d, must be positive", rep.Kernel, rep.WCETCycle)
	}
	if rep.LatencyCycle > rep.WCETCycle {
		t.Fatalf("%s: LatencyCycle %d exceeds WCETCycle %d (dir %+v)",
			rep.Kernel, rep.LatencyCycle, rep.WCETCycle, rep.Directives)
	}
	if !rep.Directives.PipelineEnabled && rep.LatencyCycle != rep.WCETCycle {
		t.Fatalf("%s: sequential schedule must be its own worst case: latency %d, wcet %d",
			rep.Kernel, rep.LatencyCycle, rep.WCETCycle)
	}
}

// TestUnrollRemainderPerOuterIteration is the regression test for the
// effective-trip-count bug: with TripCounts=[3,10] and Unroll=4, every one
// of the 3 outer iterations pays its own ceil(10/4)=3 unrolled groups — 9
// effective trips — where the old global ceil(30/4)=8 silently amortized
// the innermost remainder across outer iterations.
func TestUnrollRemainderPerOuterIteration(t *testing.T) {
	k := Kernel{
		Name: "rem",
		Nest: LoopNest{
			TripCounts: []int{3, 10},
			Body:       OpMix{Adds: 1, Muls: 1, Loads: 2, Stores: 1},
		},
		Format: base2.Float32{},
	}
	b := VitisBackend{}

	seq, err := Schedule(k, Directives{Unroll: 4}, b)
	if err != nil {
		t.Fatal(err)
	}
	depth := int64(seq.IterLatency)
	if want := 9 * (depth + 1); seq.LatencyCycle != want {
		t.Errorf("sequential latency = %d, want %d (= 3 outer x ceil(10/4) trips x (depth+1))",
			seq.LatencyCycle, want)
	}

	pipe, err := Schedule(k, Directives{PipelineEnabled: true, Unroll: 4, MemPorts: 16}, b)
	if err != nil {
		t.Fatal(err)
	}
	ii := int64(pipe.II)
	if want := (9-1)*ii + int64(pipe.IterLatency); pipe.LatencyCycle != want {
		t.Errorf("pipelined latency = %d, want %d (9 effective trips)", pipe.LatencyCycle, want)
	}
}

// TestWCETPipelinedFormula pins the pipelined bound shape: zero overlap
// across outer-loop boundaries plus one control cycle per boundary.
func TestWCETPipelinedFormula(t *testing.T) {
	k := Kernel{
		Name: "nest",
		Nest: LoopNest{
			TripCounts: []int{3, 10},
			Body:       OpMix{Adds: 1, Muls: 1, Loads: 2, Stores: 1},
		},
		Format: base2.Float32{},
	}
	rep, err := Schedule(k, Directives{PipelineEnabled: true}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	ii, depth := int64(rep.II), int64(rep.IterLatency)
	want := 3*((10-1)*ii+depth) + 2
	if rep.WCETCycle != want {
		t.Errorf("WCETCycle = %d, want %d (3 fills of a 10-trip pipeline + 2 boundary cycles)",
			rep.WCETCycle, want)
	}
	checkWCET(t, rep)

	// A single loop has no outer boundaries: the bound collapses onto the
	// achieved latency.
	flat := Kernel{Name: "flat", Nest: LoopNest{TripCounts: []int{30}, Body: k.Nest.Body}, Format: base2.Float32{}}
	frep, err := Schedule(flat, Directives{PipelineEnabled: true}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if frep.WCETCycle != frep.LatencyCycle {
		t.Errorf("single-loop WCET = %d, want latency %d", frep.WCETCycle, frep.LatencyCycle)
	}
}

// TestWCETInvariantBase2Sweep sweeps the base2 format ladder, both
// backends, and the directive grid over remainder-heavy nests: every
// producible schedule must satisfy LatencyCycle <= WCETCycle.
func TestWCETInvariantBase2Sweep(t *testing.T) {
	nests := []LoopNest{
		{TripCounts: []int{1024}, Body: OpMix{Adds: 1, Muls: 1, Loads: 2, Stores: 1}},
		{TripCounts: []int{3, 10}, Body: OpMix{Adds: 2, Muls: 1, Loads: 3, Stores: 1}},
		{TripCounts: []int{7, 13}, Body: OpMix{Adds: 1, Muls: 2, Divs: 1, Loads: 2}, Reduction: true},
		{TripCounts: []int{2, 3, 5}, Body: OpMix{Adds: 1, Special: 1, Gathers: 1, Loads: 1, Stores: 1}},
		{TripCounts: []int{1}, Body: OpMix{Compares: 1, Loads: 1, Stores: 1}},
	}
	for _, format := range sweepFormats(t) {
		for _, b := range []Backend{VitisBackend{}, BambuBackend{}} {
			if !b.SupportsFormat(format) {
				continue
			}
			for ni, nest := range nests {
				for _, pipe := range []bool{false, true} {
					for _, u := range []int{1, 2, 4, 8} {
						for _, ports := range []int{2, 8} {
							k := Kernel{Name: format.Name(), Nest: nest, Format: format}
							rep, err := Schedule(k, Directives{PipelineEnabled: pipe, Unroll: u, MemPorts: ports}, b)
							if err != nil {
								t.Fatalf("nest %d %s/%s: %v", ni, b.Name(), format.Name(), err)
							}
							checkWCET(t, rep)
						}
					}
				}
			}
		}
	}
}

// TestWCETInvariantProperty drives randomized nests and directives through
// Schedule and checks the bound invariant on every result.
func TestWCETInvariantProperty(t *testing.T) {
	formats := sweepFormats(t)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(3)
		counts := make([]int, dims)
		for i := range counts {
			counts[i] = 1 + rng.Intn(50)
		}
		k := Kernel{
			Name: "fuzz",
			Nest: LoopNest{
				TripCounts: counts,
				Body: OpMix{
					Adds: rng.Intn(4), Muls: rng.Intn(4), Divs: rng.Intn(2),
					Compares: rng.Intn(2), Special: rng.Intn(2),
					Loads: rng.Intn(4), Stores: rng.Intn(2), Gathers: rng.Intn(2),
				},
				Reduction: rng.Intn(2) == 0,
			},
			Format:      formats[rng.Intn(len(formats))],
			BufferBytes: int64(rng.Intn(1 << 16)),
		}
		d := Directives{
			PipelineEnabled: rng.Intn(2) == 0,
			TargetII:        rng.Intn(4),
			Unroll:          1 + rng.Intn(16),
			MemPorts:        1 + rng.Intn(16),
		}
		b := Backend(VitisBackend{})
		if rng.Intn(2) == 0 {
			b = BambuBackend{}
		}
		rep, err := Schedule(k, d, b)
		if err != nil {
			return !b.SupportsFormat(k.Format) // only the format gate may refuse
		}
		return rep.WCETCycle > 0 && rep.LatencyCycle <= rep.WCETCycle
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWCETFromEKLKernels runs the ekl fuzz corpus' concrete-shape kernels
// end to end — parse, lower, convert via FromEKLKernel, schedule at every
// pipeline and unroll (1 to 8) point — and checks the bound invariant on
// every derived schedule.
func TestWCETFromEKLKernels(t *testing.T) {
	cases := []struct {
		src     string
		tensors map[string][]int
	}{
		{matmulSrc, map[string][]int{"a": {8, 16}, "b": {16, 4}}},
		{"kernel k {\n  input a : [4]\n  y = a[i] + 1\n  output y\n}\n",
			map[string][]int{"a": {4}}},
		{"kernel acc {\n  input a : [6]\n  s = 0\n  s += sum(i) exp(a[i])\n  output s\n}\n",
			map[string][]int{"a": {6}}},
	}
	for ci, c := range cases {
		k, err := ekl.ParseKernel(c.src)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci)))
		bind := ekl.Binding{Tensors: map[string]*tensor.Tensor{}}
		for name, shape := range c.tensors {
			bind.Tensors[name] = tensor.Random(rng, -1, 1, shape...)
		}
		_, shapes, err := ekl.Lower(k, bind)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for _, format := range sweepFormats(t) {
			hk := FromEKLKernel(k, shapes, format)
			for _, b := range []Backend{VitisBackend{}, BambuBackend{}} {
				if !b.SupportsFormat(format) {
					continue
				}
				for _, pipe := range []bool{false, true} {
					for u := 1; u <= 8; u *= 2 {
						rep, err := Schedule(hk, Directives{PipelineEnabled: pipe, Unroll: u}, b)
						if err != nil {
							t.Fatalf("case %d %s/%s: %v", ci, b.Name(), format.Name(), err)
						}
						checkWCET(t, rep)
					}
				}
			}
		}
	}
}

// FuzzScheduleWCET fuzzes the raw schedule space: arbitrary nests, op
// mixes, and directives must never produce a schedule whose achieved
// latency exceeds its proven bound.
func FuzzScheduleWCET(f *testing.F) {
	f.Add(3, 10, 1, 1, 2, 1, true, false, 4, 16, uint8(0))
	f.Add(7, 13, 2, 1, 3, 0, false, true, 1, 2, uint8(3))
	f.Add(1, 1, 0, 0, 1, 1, true, true, 16, 1, uint8(7))
	f.Fuzz(func(t *testing.T, outer, inner, adds, muls, loads, stores int,
		pipe, reduction bool, unroll, ports int, fsel uint8) {
		if outer <= 0 || inner <= 0 || outer > 1<<20 || inner > 1<<20 {
			t.Skip()
		}
		clamp := func(v, hi int) int {
			if v < 0 {
				return 0
			}
			if v > hi {
				return hi
			}
			return v
		}
		formats := sweepFormats(t)
		format := formats[int(fsel)%len(formats)]
		k := Kernel{
			Name: "fuzz",
			Nest: LoopNest{
				TripCounts: []int{outer, inner},
				Body: OpMix{
					Adds: clamp(adds, 64), Muls: clamp(muls, 64),
					Loads: clamp(loads, 64), Stores: clamp(stores, 64),
				},
				Reduction: reduction,
			},
			Format: format,
		}
		d := Directives{PipelineEnabled: pipe, Unroll: clamp(unroll, 1<<16), MemPorts: clamp(ports, 1<<10)}
		for _, b := range []Backend{VitisBackend{}, BambuBackend{}} {
			if !b.SupportsFormat(format) {
				continue
			}
			rep, err := Schedule(k, d, b)
			if err != nil {
				t.Fatalf("schedule: %v", err)
			}
			if rep.WCETCycle <= 0 || rep.LatencyCycle > rep.WCETCycle {
				t.Fatalf("bound violated: latency %d, wcet %d (dir %+v)",
					rep.LatencyCycle, rep.WCETCycle, d)
			}
		}
	})
}
