package autotuner

import (
	"math"
	"testing"
)

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
		tn.Observe("fpga", 900)
	}
	if got := tn.Best(); got != "cpu16" {
		t.Fatalf("after degradation best = %q (fpga now %.0fms), want cpu16",
			got, tn.Expected("fpga"))
	}
	if tn.Observations("fpga") != 6 {
		t.Fatalf("observations = %d, want 6", tn.Observations("fpga"))
	}
	if d := tn.Drift("fpga"); d < 10 {
		t.Fatalf("fpga drift = %g, want >= 10 (expected latency blew up)", d)
	}
	if d := tn.Drift("cpu16"); math.Abs(d-1) > 1e-9 {
		t.Fatalf("untouched cpu16 drift = %g, want 1", d)
	}
	// Fast fpga observations recover the selection.
	for i := 0; i < 12; i++ {
		tn.Observe("fpga", 15)
	}
	if got := tn.Best(); got != "fpga" {
		t.Fatalf("after recovery best = %q, want fpga", got)
	}
}

// TestTunerAvailableIsKnownVariant: a tuner offers exactly the variants
// it was seeded with, and unknown names read as absent.
func TestTunerAvailableIsKnownVariant(t *testing.T) {
	tn := newTestTuner(t)
	for _, v := range tn.Variants() {
		if !tn.Available(v) {
			t.Errorf("seeded variant %q must be available", v)
		}
	}
	if tn.Available("ghost") {
		t.Fatal("unknown variant must be unavailable")
	}
	if tn.Expected("ghost") != 0 || tn.Drift("ghost") != 1 {
		t.Fatal("unknown variant must report zero expectation, unit drift")
	}
}

func TestAutotunerScale(t *testing.T) {
	at, err := New(
		[]Knob{{Name: "impl", Values: []string{"a"}}},
		[]OperatingPoint{{Config: Config{"impl": "a"}, Metrics: map[Metric]float64{MetricTimeMs: 10}}},
		nil, Rank{Metric: MetricTimeMs, Minimize: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := at.Scale(Config{"impl": "a"}, MetricTimeMs, 3); err != nil {
		t.Fatal(err)
	}
	if got := at.Select().Metrics[MetricTimeMs]; math.Abs(got-30) > 1e-9 {
		t.Fatalf("scaled metric = %g, want 30", got)
	}
	if err := at.Scale(Config{"impl": "b"}, MetricTimeMs, 2); err == nil {
		t.Error("scaling unknown point must fail")
	}
	if err := at.Scale(Config{"impl": "a"}, MetricTimeMs, 0); err == nil {
		t.Error("non-positive factor must fail")
	}
}
