package autotuner

import (
	"testing"
)

func implKnob() []Knob {
	return []Knob{{Name: "impl", Values: []string{"cpu1", "cpu16", "fpga"}}}
}

func defaultPoints() []OperatingPoint {
	return []OperatingPoint{
		{Config: Config{"impl": "cpu1"}, Metrics: map[Metric]float64{MetricTimeMs: 800, MetricEnergyJ: 40}},
		{Config: Config{"impl": "cpu16"}, Metrics: map[Metric]float64{MetricTimeMs: 90, MetricEnergyJ: 120}},
		{Config: Config{"impl": "fpga"}, Metrics: map[Metric]float64{MetricTimeMs: 30, MetricEnergyJ: 25}},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(implKnob(), nil, nil, Rank{}); err == nil {
		t.Error("no points must fail")
	}
	bad := []OperatingPoint{{Config: Config{"impl": "gpu"}, Metrics: nil}}
	if _, err := New(implKnob(), bad, nil, Rank{}); err == nil {
		t.Error("invalid knob value must fail")
	}
	missing := []OperatingPoint{{Config: Config{}, Metrics: nil}}
	if _, err := New(implKnob(), missing, nil, Rank{}); err == nil {
		t.Error("missing knob must fail")
	}
	dup := []OperatingPoint{
		{Config: Config{"impl": "cpu1"}, Metrics: nil},
		{Config: Config{"impl": "cpu1"}, Metrics: nil},
	}
	if _, err := New(implKnob(), dup, nil, Rank{}); err == nil {
		t.Error("duplicate point must fail")
	}
}

func TestSelectMinimizesRank(t *testing.T) {
	a, err := New(implKnob(), defaultPoints(), nil, Rank{Metric: MetricTimeMs, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Select().Config["impl"]; got != "fpga" {
		t.Errorf("Select = %s, want fpga (fastest)", got)
	}
}

func TestSelectHonorsGoals(t *testing.T) {
	// Minimize energy subject to exec_time <= 100ms: cpu1 is cheapest in
	// energy but too slow; fpga wins (fast AND frugal). Tighten to force
	// cpu16 exclusion too.
	goals := []Goal{{Metric: MetricTimeMs, Value: 100}}
	a, err := New(implKnob(), defaultPoints(), goals, Rank{Metric: MetricEnergyJ, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Select().Config["impl"]; got != "fpga" {
		t.Errorf("Select = %s, want fpga", got)
	}
	// Unreachable goal: closest point wins (graceful degradation).
	a.goals = []Goal{{Metric: MetricTimeMs, Value: 1}}
	if got := a.Select().Config["impl"]; got != "fpga" {
		t.Errorf("closest-to-feasible = %s, want fpga (30ms nearest to 1ms)", got)
	}
}

func TestObserveAdaptsSelection(t *testing.T) {
	// E7 in miniature: the FPGA is unplugged, its observed time degrades,
	// and selection falls back to cpu16.
	goals := []Goal{{Metric: MetricTimeMs, Value: 100}}
	a, err := New(implKnob(), defaultPoints(), goals, Rank{Metric: MetricEnergyJ, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Select().Config["impl"] != "fpga" {
		t.Fatal("precondition: fpga selected")
	}
	// FPGA now times out (software fallback path): feed slow observations.
	for i := 0; i < 8; i++ {
		if err := a.Observe(Config{"impl": "fpga"}, MetricTimeMs, 2000); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Select().Config["impl"]; got != "cpu16" {
		t.Errorf("after degradation Select = %s, want cpu16", got)
	}
	if a.observations[Config{"impl": "fpga"}.Key()] != 8 {
		t.Error("observation count wrong")
	}
	// FPGA recovers.
	for i := 0; i < 12; i++ {
		if err := a.Observe(Config{"impl": "fpga"}, MetricTimeMs, 30); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Select().Config["impl"]; got != "fpga" {
		t.Errorf("after recovery Select = %s, want fpga", got)
	}
}

func TestObserveUnknownConfig(t *testing.T) {
	a, _ := New(implKnob(), defaultPoints(), nil, Rank{Metric: MetricTimeMs, Minimize: true})
	if err := a.Observe(Config{"impl": "gpu"}, MetricTimeMs, 1); err == nil {
		t.Error("unknown config must fail")
	}
}

func TestEWMAUpdate(t *testing.T) {
	a, _ := New(implKnob(), defaultPoints(), nil, Rank{Metric: MetricTimeMs, Minimize: true})
	cfg := Config{"impl": "cpu1"}
	if err := a.Observe(cfg, MetricTimeMs, 1000); err != nil {
		t.Fatal(err)
	}
	// EWMA(0.5): 0.5*800 + 0.5*1000 = 900.
	if got := a.points[cfg.Key()].Metrics[MetricTimeMs]; got != 900 {
		t.Errorf("EWMA = %g, want 900", got)
	}
	// New metric appears directly.
	if err := a.Observe(cfg, "error_pct", 2.5); err != nil {
		t.Fatal(err)
	}
	if a.points[cfg.Key()].Metrics["error_pct"] != 2.5 {
		t.Error("fresh metric must be adopted as-is")
	}
}

func TestSelectDeterministicOnTies(t *testing.T) {
	pts := []OperatingPoint{
		{Config: Config{"impl": "cpu1"}, Metrics: map[Metric]float64{MetricTimeMs: 50}},
		{Config: Config{"impl": "cpu16"}, Metrics: map[Metric]float64{MetricTimeMs: 50}},
	}
	a, _ := New(implKnob(), pts, nil, Rank{Metric: MetricTimeMs, Minimize: true})
	first := a.Select().Config["impl"]
	for i := 0; i < 10; i++ {
		if a.Select().Config["impl"] != first {
			t.Fatal("tie-breaking must be deterministic")
		}
	}
	if first != "cpu1" {
		t.Errorf("tie should keep insertion order winner, got %s", first)
	}
}

func TestGoalSatisfied(t *testing.T) {
	if !(Goal{Metric: MetricTimeMs, Value: 10}).Satisfied(10) {
		t.Error("a goal must include equality")
	}
	if (Goal{Metric: MetricTimeMs, Value: 10}).Satisfied(11) {
		t.Error("goal violated")
	}
}

func TestConfigKeyCanonical(t *testing.T) {
	a := Config{"b": "2", "a": "1"}
	b := Config{"a": "1", "b": "2"}
	if a.Key() != b.Key() {
		t.Error("Config.Key must be order-independent")
	}
}
