package energy

import (
	"math"
	"testing"

	"everest/internal/tensor"
)

func TestTurbinePowerCurve(t *testing.T) {
	tb := Turbine{CutInMS: 3, RatedMS: 12, CutOutMS: 25, RatedKW: 2000, Available: true}
	if tb.Power(2) != 0 {
		t.Error("below cut-in must be 0")
	}
	if tb.Power(12) != 2000 || tb.Power(20) != 2000 {
		t.Error("rated region must give rated power")
	}
	if tb.Power(26) != 0 {
		t.Error("above cut-out must be 0")
	}
	mid := tb.Power(8)
	if mid <= 0 || mid >= 2000 {
		t.Errorf("cubic region power %g out of range", mid)
	}
	// Monotone in the cubic region.
	if tb.Power(9) <= tb.Power(7) {
		t.Error("power must increase with wind in the cubic region")
	}
	tb.Available = false
	if tb.Power(10) != 0 {
		t.Error("unavailable turbine produces nothing")
	}
}

func TestFarmPower(t *testing.T) {
	f := NewFarm(10)
	if f.Power(0) != 0 {
		t.Error("no wind, no power")
	}
	p := f.Power(9) // hub speed = 9*1.34 > rated
	if p != 10*2000 {
		t.Errorf("farm at rated = %g, want 20000", p)
	}
}

func TestSynthesizeYearDeterministic(t *testing.T) {
	f := NewFarm(8)
	a := SynthesizeYear(1, 1000, f)
	b := SynthesizeYear(1, 1000, f)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("dataset generation must be deterministic per seed")
		}
	}
	c := SynthesizeYear(2, 1000, f)
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds must differ")
	}
	// Sanity: wind speeds non-negative, power within farm limits.
	for _, s := range a.Samples {
		if s.ForecastWS < 0 {
			t.Fatal("negative wind speed")
		}
		if s.PowerKW < 0 || s.PowerKW > 8*2000 {
			t.Fatalf("power %g out of range", s.PowerKW)
		}
	}
}

func TestKRRFitPredict(t *testing.T) {
	// y = 2*x0 + 1 is easily learnable.
	n := 50
	x := tensor.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i) / 10
		x.Set(v, i, 0)
		y[i] = 2*v + 1
	}
	k := NewKRR(1e-6, 1.0)
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := k.Predict([]float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6) > 0.2 {
		t.Errorf("KRR predict(2.5) = %g, want ~6", got)
	}
}

func TestKRRValidation(t *testing.T) {
	k := NewKRR(1e-3, 1)
	if _, err := k.Predict([]float64{1}); err == nil {
		t.Error("predict before fit must fail")
	}
	if err := k.Fit(tensor.New(3, 2), []float64{1, 2}); err == nil {
		t.Error("length mismatch must fail")
	}
	if err := k.Fit(tensor.New(1, 2), []float64{1}); err == nil {
		t.Error("single sample must fail")
	}
	x := tensor.New(5, 2)
	if err := k.Fit(x, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Predict([]float64{1}); err == nil {
		t.Error("feature count mismatch must fail")
	}
}

func TestBacktestKRRBeatsBaselines(t *testing.T) {
	// E12: KRR must beat persistence and the raw physical model, and be at
	// least as good as linear regression.
	farm := NewFarm(12)
	ds := SynthesizeYear(7, 1600, farm)
	res, err := Backtest(ds, 0.6, DefaultKRR())
	if err != nil {
		t.Fatal(err)
	}
	if res.MAEKRR <= 0 {
		t.Fatal("MAE must be positive on noisy data")
	}
	if res.MAEKRR >= res.MAEPersistence {
		t.Errorf("KRR MAE %g must beat persistence %g", res.MAEKRR, res.MAEPersistence)
	}
	if res.MAEKRR >= res.MAEPhysical {
		t.Errorf("KRR MAE %g must beat the raw power-curve forecast %g", res.MAEKRR, res.MAEPhysical)
	}
	if res.MAEKRR > res.MAELinear*1.05 {
		t.Errorf("KRR MAE %g should be at least comparable to linear %g", res.MAEKRR, res.MAELinear)
	}
}

func TestBacktestValidation(t *testing.T) {
	farm := NewFarm(4)
	ds := SynthesizeYear(1, 15, farm)
	if _, err := Backtest(ds, 0.5, DefaultKRR()); err == nil {
		t.Error("too little data must fail")
	}
}

func TestFeaturesShape(t *testing.T) {
	s := Sample{Hour: 13, ForecastWS: 8, ForecastDir: 1.2, Availability: 1}
	f := Features(NewFarm(4), s)
	if len(f) != 8 {
		t.Errorf("feature vector has %d entries, want 8", len(f))
	}
}
