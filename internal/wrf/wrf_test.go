package wrf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"everest/internal/ekl"
	"everest/internal/tensor"
)

// validate checks for numerical blow-up.
func validate(s *State) error {
	for _, v := range s.T.Data() {
		if math.IsNaN(v) || v < 100 || v > 400 {
			return fmt.Errorf("wrf: temperature field blew up (value %g)", v)
		}
	}
	return nil
}

func smallCfg() Config {
	return Config{NX: 12, NY: 12, NZ: 6, DT: 60, DX: 3000, RadiationEvery: 1}
}

func TestStateInitialization(t *testing.T) {
	s := NewState(smallCfg(), 1)
	if err := validate(s); err != nil {
		t.Fatal(err)
	}
	// North colder than south (baroclinic gradient).
	south := 0.0
	north := 0.0
	for i := 0; i < s.Cfg.NX; i++ {
		south += s.T.At(i, 0, 0)
		north += s.T.At(i, s.Cfg.NY-1, 0)
	}
	if north >= south {
		t.Error("initial state must have a meridional temperature gradient")
	}
}

func TestStepStability(t *testing.T) {
	s := NewState(smallCfg(), 2)
	rad := NewRadiation(2, s.Cfg.NZ)
	s.Run(rad, 100)
	if err := validate(s); err != nil {
		t.Fatalf("model blew up after 100 steps: %v", err)
	}
	if s.Steps != 100 {
		t.Errorf("step counter = %d", s.Steps)
	}
}

func TestStepDeterministic(t *testing.T) {
	a := NewState(smallCfg(), 3)
	b := NewState(smallCfg(), 3)
	rad := NewRadiation(3, a.Cfg.NZ)
	a.Run(rad, 20)
	b.Run(rad, 20)
	if tensor.MaxAbsDiff(a.T, b.T) != 0 {
		t.Error("model must be bit-deterministic")
	}
}

func TestRadiationFractionNearPaperValue(t *testing.T) {
	// Paper §V-A1: RRTMG consumes around 30% of WRF compute cycles. Our
	// flop model must land in the same regime (20%–45%).
	s := NewState(smallCfg(), 4)
	rad := NewRadiation(4, s.Cfg.NZ)
	s.Run(rad, 20)
	frac := s.RadiationFraction()
	if frac < 0.20 || frac > 0.45 {
		t.Errorf("radiation fraction = %.2f, want ~0.3 (paper's RRTMG share)", frac)
	}
}

func TestColumnTauProperties(t *testing.T) {
	rad := NewRadiation(5, 6)
	tCol := []float64{290, 285, 275, 260, 245, 230}
	qCol := []float64{7, 6, 4, 3, 2, 1}
	tau := rad.ColumnTau(tCol, qCol)
	if len(tau) != rad.NGpt {
		t.Fatalf("tau has %d g-points, want %d", len(tau), rad.NGpt)
	}
	for g, v := range tau {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("tau[%d] = %g must be positive", g, v)
		}
	}
	// More moisture -> more absorber -> larger tau.
	qWet := []float64{10, 9, 8, 7, 6, 5}
	tauWet := rad.ColumnTau(tCol, qWet)
	sum, sumWet := 0.0, 0.0
	for g := range tau {
		sum += tau[g]
		sumWet += tauWet[g]
	}
	if sumWet <= sum {
		t.Error("wetter column must have larger optical depth")
	}
}

func TestEKLKernelMatchesRadiationStructure(t *testing.T) {
	// The EKL source must parse, check, and run on tables shaped like the
	// Radiation scheme's (E1 wiring).
	k, err := ekl.ParseKernel(EKLSource())
	if err != nil {
		t.Fatal(err)
	}
	rad := NewRadiation(6, 6)
	rng := rand.New(rand.NewSource(6))
	nx := 8
	intT := func(max int, shape ...int) *tensor.Tensor {
		tt := tensor.New(shape...)
		for i := range tt.Data() {
			tt.Data()[i] = float64(rng.Intn(max))
		}
		return tt
	}
	bind := ekl.Binding{
		Tensors: map[string]*tensor.Tensor{
			"p":           tensor.Random(rng, 5000, 101325, nx),
			"bnd_to_flav": intT(rad.NFlav, 2, 4),
			"j_T":         intT(rad.NT-2, nx),
			"j_p":         intT(rad.NP-3, nx),
			"j_eta":       intT(rad.NEta-2, rad.NFlav, nx),
			"r_mix":       tensor.Random(rng, 0, 1, rad.NFlav, nx, 2),
			"f_major":     tensor.Random(rng, 0, 1, rad.NFlav, nx, 2, 2, 2),
			"k_major":     rad.kMajor,
		},
		Scalars: map[string]float64{"bnd": 1},
	}
	res, err := k.Run(bind)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs["tau_abs"]
	if out.Shape()[0] != nx || out.Shape()[1] != rad.NGpt {
		t.Errorf("tau shape %v, want (%d,%d)", out.Shape(), nx, rad.NGpt)
	}
}

func TestAssimilationImprovesAnalysis(t *testing.T) {
	// Verification horizon short enough that the upwind scheme's numerical
	// diffusion has not yet damped the initial-condition differences.
	exp, err := RunAssimilationExperiment(smallCfg(), 10, 8, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if exp.AnalysisRMSE >= exp.BackgroundRMSE {
		t.Errorf("analysis RMSE %g must beat background %g",
			exp.AnalysisRMSE, exp.BackgroundRMSE)
	}
	if exp.ForecastRMSEAssim >= exp.ForecastRMSEFree {
		t.Errorf("assimilated forecast RMSE %g must beat free forecast %g",
			exp.ForecastRMSEAssim, exp.ForecastRMSEFree)
	}
}

func TestAssimilationValidation(t *testing.T) {
	bg := NewState(smallCfg(), 1)
	if _, err := Assimilate3DVar(bg, nil, 0, 1); err == nil {
		t.Error("zero background error must fail")
	}
	bad := []Observation{{I: 99, J: 0, K: 0, Value: 300, ErrStd: 1}}
	if _, err := Assimilate3DVar(bg, bad, 1, 1); err == nil {
		t.Error("out-of-grid observation must fail")
	}
}

func TestEnsembleSpreadAndSkill(t *testing.T) {
	res, err := RunEnsemble(smallCfg(), 6, 30, 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spread <= 0 {
		t.Error("ensemble must have positive spread")
	}
	// Classic ensemble property: the mean beats the average member.
	avgMember := 0.0
	for _, r := range res.MemberRMSE {
		avgMember += r
	}
	avgMember /= float64(len(res.MemberRMSE))
	if res.MeanRMSE >= avgMember {
		t.Errorf("ensemble mean RMSE %g must beat average member %g", res.MeanRMSE, avgMember)
	}
	if _, err := RunEnsemble(smallCfg(), 1, 5, 1); err == nil {
		t.Error("ensemble of 1 must fail")
	}
}

func TestRadiationEveryThrottles(t *testing.T) {
	cfg := smallCfg()
	cfg.RadiationEvery = 5
	s := NewState(cfg, 8)
	rad := NewRadiation(8, cfg.NZ)
	s.Run(rad, 20)
	full := NewState(smallCfg(), 8)
	full.Run(NewRadiation(8, full.Cfg.NZ), 20)
	if s.RadiationFlops >= full.RadiationFlops {
		t.Error("throttled radiation must cost fewer flops")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewState(smallCfg(), 9)
	c := s.Clone()
	c.T.Set(999, 0, 0, 0)
	if s.T.At(0, 0, 0) == 999 {
		t.Error("Clone must deep-copy fields")
	}
}

// TestEKLBindingRunsKernel: the synthesized binding must drive the Fig. 3
// kernel against the scheme's own table shapes (the compile path of the
// weather application in the workload registry).
func TestEKLBindingRunsKernel(t *testing.T) {
	rad := NewRadiation(9, 8)
	k, err := ekl.ParseKernel(EKLSource())
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(rad.EKLBinding(9, 12))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs["tau_abs"]
	if out.Shape()[0] != 12 || out.Shape()[1] != rad.NGpt {
		t.Fatalf("tau shape %v, want (12,%d)", out.Shape(), rad.NGpt)
	}
	for _, v := range out.Data() {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("non-physical optical depth %g", v)
		}
	}
}
