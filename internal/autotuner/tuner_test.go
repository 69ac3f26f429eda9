package autotuner

import (
	"math"
	"slices"
	"testing"
)

// expected returns a variant's current expected latency in ms (0 for
// unknown variants).
func expected(tn *Tuner, name string) float64 {
	if i, ok := tn.Index(name); ok {
		return tn.points[i].expected
	}
	return 0
}

// at returns the position of a variant the tuner must know.
func at(t *testing.T, tn *Tuner, name string) int {
	t.Helper()
	i, ok := tn.Index(name)
	if !ok {
		t.Fatalf("tuner does not know %q", name)
	}
	return i
}

// known reports whether the tuner knows a variant.
func known(tn *Tuner, name string) bool {
	_, ok := tn.Index(name)
	return ok
}

// variantNames returns the variant names in seed order.
func variantNames(tn *Tuner) []string {
	names := make([]string, len(tn.points))
	for i := range tn.points {
		names[i] = tn.points[i].name
	}
	return names
}

func newTestTuner(t *testing.T) *Tuner {
	t.Helper()
	tn, err := NewTuner([]Variant{
		{Name: "cpu1", ExpectedMs: 1000},
		{Name: "cpu16", ExpectedMs: 120},
		{Name: "fpga", ExpectedMs: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestTunerValidation(t *testing.T) {
	if _, err := NewTuner(nil); err == nil {
		t.Error("empty variant set must fail")
	}
	if _, err := NewTuner([]Variant{{Name: "", ExpectedMs: 1}}); err == nil {
		t.Error("unnamed variant must fail")
	}
	if _, err := NewTuner([]Variant{{Name: "a", ExpectedMs: 0}}); err == nil {
		t.Error("non-positive expectation must fail")
	}
	if _, err := NewTuner([]Variant{{Name: "a", ExpectedMs: 1}, {Name: "a", ExpectedMs: 2}}); err == nil {
		t.Error("duplicate variant must fail")
	}
}

func TestTunerSelectsAndAdapts(t *testing.T) {
	tn := newTestTuner(t)
	if got := tn.Best(); got != "fpga" {
		t.Fatalf("fresh tuner best = %q, want fpga", got)
	}
	// The fpga variant degrades in the field (device unplugged, runs fall
	// back to slow software): observations push its expectation past cpu16.
	for i := 0; i < 6; i++ {
		tn.Observe(at(t, tn, "fpga"), 900)
	}
	if got := tn.Best(); got != "cpu16" {
		t.Fatalf("after degradation best = %q (fpga now %.0fms), want cpu16",
			got, expected(tn, "fpga"))
	}
	if d := tn.Drift(at(t, tn, "fpga")); d < 10 {
		t.Fatalf("fpga drift = %g, want >= 10 (expected latency blew up)", d)
	}
	if d := tn.Drift(at(t, tn, "cpu16")); math.Abs(d-1) > 1e-9 {
		t.Fatalf("untouched cpu16 drift = %g, want 1", d)
	}
	// Fast fpga observations recover the selection.
	for i := 0; i < 12; i++ {
		tn.Observe(at(t, tn, "fpga"), 15)
	}
	if got := tn.Best(); got != "fpga" {
		t.Fatalf("after recovery best = %q, want fpga", got)
	}
}

// TestTunerResetRestoresSeeds: Reset after observations drops every one
// of them, so each variant reads its seed again.
func TestTunerResetRestoresSeeds(t *testing.T) {
	seeds := []Variant{{Name: "cpu1", ExpectedMs: 1000}, {Name: "cpu16", ExpectedMs: 120}, {Name: "fpga", ExpectedMs: 15}}
	tn := newTestTuner(t)
	for _, v := range seeds {
		tn.Observe(at(t, tn, v.Name), 7*v.ExpectedMs)
	}
	if err := tn.Reset(seeds); err != nil {
		t.Fatal(err)
	}
	for _, v := range seeds {
		if got := expected(tn, v.Name); got != v.ExpectedMs {
			t.Errorf("%s expected %g after Reset, want the seed %g", v.Name, got, v.ExpectedMs)
		}
		if got := tn.Drift(at(t, tn, v.Name)); got != 1 {
			t.Errorf("%s drift %g after Reset, want 1", v.Name, got)
		}
	}
	if got := variantNames(tn); !slices.Equal(got, []string{"cpu1", "cpu16", "fpga"}) {
		t.Errorf("variants after Reset = %v, want the seed order", got)
	}
}

// TestTunerResetReusesStorage: reseeding a tuner that already holds as
// many points allocates nothing, which is what lets the engine recycle a
// workflow's tuner with its record.
func TestTunerResetReusesStorage(t *testing.T) {
	tn := newTestTuner(t)
	seeds := []Variant{{Name: "cpu1", ExpectedMs: 900}, {Name: "fpga", ExpectedMs: 20}}
	if got := testing.AllocsPerRun(100, func() {
		if err := tn.Reset(seeds); err != nil {
			t.Fatal(err)
		}
		tn.Observe(at(t, tn, "fpga"), 60)
	}); got != 0 {
		t.Fatalf("Reset into a tuner with room allocates %.1f per run, want 0", got)
	}
}

// TestTunerResetRefusesLikeNewTuner: every set NewTuner refuses, Reset
// refuses with the same error, and the refused tuner offers no variant.
func TestTunerResetRefusesLikeNewTuner(t *testing.T) {
	for _, bad := range [][]Variant{
		nil,
		{{Name: "", ExpectedMs: 1}},
		{{Name: "a", ExpectedMs: 0}},
		{{Name: "a", ExpectedMs: -1}},
		{{Name: "a", ExpectedMs: 1}, {Name: "a", ExpectedMs: 2}},
		{{Name: "a", ExpectedMs: 2, BoundMs: 1}},
		{{Name: "a", ExpectedMs: 2, BoundMs: -1}},
		{{Name: "a", ExpectedMs: 1}, {Name: "b", ExpectedMs: 2, BoundMs: 1}},
	} {
		_, want := NewTuner(bad)
		if want == nil {
			t.Fatalf("NewTuner accepted %+v", bad)
		}
		tn := newTestTuner(t)
		err := tn.Reset(bad)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("Reset(%+v) = %v, want %q", bad, err, want)
		}
		for _, name := range []string{"cpu1", "cpu16", "fpga", "a", "b"} {
			if known(tn, name) {
				t.Errorf("after Reset(%+v) refused, %q is still available", bad, name)
			}
		}
	}
}

// TestTunerAvailableIsKnownVariant: a tuner knows exactly the variants it
// was seeded with, each at its place in the seed order, and unknown names
// read as absent.
func TestTunerAvailableIsKnownVariant(t *testing.T) {
	tn := newTestTuner(t)
	for want, v := range variantNames(tn) {
		if got, ok := tn.Index(v); !ok || got != want {
			t.Errorf("seeded variant %q at %d (known %v), want %d", v, got, ok, want)
		}
	}
	if known(tn, "ghost") || expected(tn, "ghost") != 0 {
		t.Fatal("unknown variant must be absent, with zero expectation")
	}
}
