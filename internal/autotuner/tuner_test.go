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

func TestTunerAvailabilityAndDegrade(t *testing.T) {
	tn := newTestTuner(t)
	tn.SetAvailable("fpga", false)
	if tn.Available("fpga") {
		t.Fatal("masked variant must be unavailable")
	}
	if got := tn.Best(); got != "cpu16" {
		t.Fatalf("best with fpga masked = %q, want cpu16", got)
	}
	tn.SetAvailable("fpga", true)
	if got := tn.Best(); got != "fpga" {
		t.Fatalf("best after unmask = %q, want fpga", got)
	}
	// Degrade reacts immediately, without an observation.
	tn.Degrade("fpga", 20)
	if got := tn.Best(); got != "cpu16" {
		t.Fatalf("best after 20x degrade = %q, want cpu16", got)
	}
	if exp := tn.Expected("fpga"); math.Abs(exp-300) > 1e-9 {
		t.Fatalf("fpga expected = %g, want 300", exp)
	}
	// Masking everything still returns the overall best (graceful
	// degradation), and unknown variants are ignored safely.
	for _, v := range tn.Variants() {
		tn.SetAvailable(v, false)
	}
	if got := tn.Best(); got == "" {
		t.Fatal("fully masked tuner must still pick a variant")
	}
	tn.SetAvailable("ghost", false)
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
