package hls

import (
	"testing"

	"everest/internal/base2"
)

// Resource-constrained scheduling on small dataflow graphs: these tests
// pin the exact II and latency arithmetic (memory-port pressure, the
// reduction recurrence, the TargetII floor, and unroll clamping), which is
// what the variant pipeline's fpga operating points are derived from.

func fixed16(t *testing.T) base2.Format {
	t.Helper()
	f, err := base2.NewFixedFormat(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMemoryPortPressureBoundsII(t *testing.T) {
	// Fixed-point add latency is 1, so with no reduction the II is purely
	// the memory floor: ceil(accesses / ports).
	k := Kernel{
		Name:   "ports",
		Nest:   LoopNest{TripCounts: []int{100}, Body: OpMix{Adds: 1, Loads: 4, Stores: 2}},
		Format: fixed16(t),
	}
	cases := []struct {
		name   string
		ports  int
		wantII int
	}{
		{"default 2 ports", 0, 3}, // ceil(6/2)
		{"2 ports explicit", 2, 3},
		{"3 ports", 3, 2}, // ceil(6/3)
		{"6 ports", 6, 1},
		{"8 ports saturate at II=1", 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Schedule(k, Directives{PipelineEnabled: true, MemPorts: tc.ports}, VitisBackend{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.II != tc.wantII {
				t.Fatalf("II = %d, want %d", rep.II, tc.wantII)
			}
			wantLatency := int64(100-1)*int64(tc.wantII) + int64(rep.IterLatency)
			if rep.LatencyCycle != wantLatency {
				t.Fatalf("latency = %d, want (trips-1)*II+depth = %d", rep.LatencyCycle, wantLatency)
			}
		})
	}
}

func TestGathersCountDoubleAgainstPorts(t *testing.T) {
	// A gather is a dependent load: address fetch plus data fetch, two
	// memory transactions against the port budget.
	k := Kernel{
		Name:   "gather",
		Nest:   LoopNest{TripCounts: []int{64}, Body: OpMix{Adds: 1, Gathers: 2}},
		Format: fixed16(t),
	}
	rep, err := Schedule(k, Directives{PipelineEnabled: true, MemPorts: 2}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.II != 2 { // ceil(2*2/2)
		t.Fatalf("II = %d, want 2", rep.II)
	}
}

func TestReductionRecurrenceVsPortFloor(t *testing.T) {
	// With a reduction, the accumulator feedback bounds the II at the add
	// latency even when the memory system is wide open.
	k := Kernel{
		Name:   "dot",
		Nest:   LoopNest{TripCounts: []int{256}, Body: OpMix{Adds: 1, Muls: 1, Loads: 2}, Reduction: true},
		Format: base2.Float32{},
	}
	rep, err := Schedule(k, Directives{PipelineEnabled: true, MemPorts: 16}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	addLat := VitisBackend{}.Cost(OpAdd, base2.Float32{}).Latency
	if rep.II != addLat {
		t.Fatalf("II = %d, want f32 add latency %d", rep.II, addLat)
	}
	// The same nest in fixed point has a single-cycle accumulate: II = 1.
	k.Format = fixed16(t)
	rep, err = Schedule(k, Directives{PipelineEnabled: true, MemPorts: 16}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.II != 1 {
		t.Fatalf("fixed-point II = %d, want 1", rep.II)
	}
}

func TestTargetIIIsAFloor(t *testing.T) {
	k := Kernel{
		Name:   "floor",
		Nest:   LoopNest{TripCounts: []int{32}, Body: OpMix{Adds: 1, Loads: 1, Stores: 1}},
		Format: fixed16(t),
	}
	rep, err := Schedule(k, Directives{PipelineEnabled: true, TargetII: 7}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.II != 7 {
		t.Fatalf("II = %d, want requested floor 7", rep.II)
	}
	// A target below the achievable II does not lie about the result.
	rep, err = Schedule(k, Directives{PipelineEnabled: true, TargetII: 1, MemPorts: 1}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.II != 2 { // ceil(2 accesses / 1 port)
		t.Fatalf("II = %d, want memory floor 2 despite TargetII=1", rep.II)
	}
}

func TestUnrollClampsToInnerTripCount(t *testing.T) {
	k := Kernel{
		Name:   "clamp",
		Nest:   LoopNest{TripCounts: []int{10, 4}, Body: OpMix{Adds: 1, Loads: 1}},
		Format: fixed16(t),
	}
	wide, err := Schedule(k, Directives{PipelineEnabled: true, Unroll: 64, MemPorts: 64}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := Schedule(k, Directives{PipelineEnabled: true, Unroll: 4, MemPorts: 64}, VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if wide.LatencyCycle != clamped.LatencyCycle || wide.Resources != clamped.Resources {
		t.Fatalf("unroll 64 over a 4-trip inner loop should equal unroll 4: %v vs %v", wide, clamped)
	}
}
