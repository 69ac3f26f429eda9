package anomaly

import (
	"math/rand"
	"strings"
	"testing"

	"everest/internal/tensor"
)

// syntheticData builds a 2-feature Gaussian cloud with planted anomalies.
func syntheticData(rng *rand.Rand, n, nAnom int) (*tensor.Tensor, []bool) {
	x := tensor.New(n, 2)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		x.Set(rng.NormFloat64(), i, 0)
		x.Set(rng.NormFloat64()*0.5+1, i, 1)
	}
	// Plant anomalies at deterministic positions.
	for k := 0; k < nAnom; k++ {
		i := (k*17 + 3) % n
		x.Set(8+rng.Float64()*4, i, 0)
		x.Set(-6-rng.Float64()*3, i, 1)
		labels[i] = true
	}
	return x, labels
}

func detectorsUnderTest() []Detector {
	return []Detector{
		&ZScore{}, &IQR{}, &Mahalanobis{}, &IsolationForest{Trees: 50, Seed: 1}, &LOF{K: 8},
	}
}

// globalDetectors are the detectors expected to separate *clustered*
// outliers; LOF by design scores clustered anomalies as locally normal, so
// it gets its own scattered-anomaly test below.
func globalDetectors() []Detector {
	return []Detector{
		&ZScore{}, &IQR{}, &Mahalanobis{}, &IsolationForest{Trees: 50, Seed: 1},
	}
}

func TestDetectorsSeparateAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data, labels := syntheticData(rng, 300, 10)
	for _, d := range globalDetectors() {
		if err := d.Fit(data); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		// Mean anomaly score of planted outliers must exceed mean score of
		// normal points by a clear margin.
		var anomSum, normSum float64
		var anomN, normN int
		p := make([]float64, 2)
		for i := 0; i < data.Shape()[0]; i++ {
			p[0], p[1] = data.At(i, 0), data.At(i, 1)
			s, err := d.Score(p)
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			if labels[i] {
				anomSum += s
				anomN++
			} else {
				normSum += s
				normN++
			}
		}
		anomMean := anomSum / float64(anomN)
		normMean := normSum / float64(normN)
		if anomMean <= normMean*1.2 {
			t.Errorf("%s: anomaly mean %g not separated from normal mean %g",
				d.Name(), anomMean, normMean)
		}
	}
}

func TestLOFSeparatesScatteredAnomalies(t *testing.T) {
	// LOF is a *local* density method: it flags isolated points, not dense
	// anomaly clusters. Plant 4 mutually distant outliers.
	rng := rand.New(rand.NewSource(13))
	n := 300
	x := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		x.Set(rng.NormFloat64(), i, 0)
		x.Set(rng.NormFloat64()*0.5+1, i, 1)
	}
	outliers := [][2]float64{{10, 10}, {-10, 8}, {9, -9}, {-8, -11}}
	labels := make([]bool, n)
	for k, o := range outliers {
		i := k * 70
		x.Set(o[0], i, 0)
		x.Set(o[1], i, 1)
		labels[i] = true
	}
	d := &LOF{K: 8}
	if err := d.Fit(x); err != nil {
		t.Fatal(err)
	}
	var anomMin, normMax float64
	anomMin = 1e18
	p := make([]float64, 2)
	for i := 0; i < n; i++ {
		p[0], p[1] = x.At(i, 0), x.At(i, 1)
		s, err := d.Score(p)
		if err != nil {
			t.Fatal(err)
		}
		if labels[i] {
			if s < anomMin {
				anomMin = s
			}
		} else if s > normMax {
			normMax = s
		}
	}
	if anomMin <= normMax {
		t.Errorf("LOF: weakest outlier score %g must exceed strongest inlier %g", anomMin, normMax)
	}
}

func TestDetectorValidation(t *testing.T) {
	for _, d := range detectorsUnderTest() {
		if err := d.Fit(tensor.New(1, 2)); err == nil {
			t.Errorf("%s: single sample must fail", d.Name())
		}
		if err := d.Fit(tensor.New(4)); err == nil {
			t.Errorf("%s: rank-1 input must fail", d.Name())
		}
	}
	z := &ZScore{}
	if err := z.Fit(tensor.New(10, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := z.Score([]float64{1}); err == nil {
		t.Error("wrong feature count must fail")
	}
}

func TestIsolationForestScoreRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := syntheticData(rng, 200, 5)
	f := &IsolationForest{Trees: 64, Seed: 2}
	if err := f.Fit(data); err != nil {
		t.Fatal(err)
	}
	p := []float64{0, 1}
	s, err := f.Score(p)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s >= 1 {
		t.Errorf("iforest score %g must lie in (0,1)", s)
	}
	far, _ := f.Score([]float64{100, -100})
	if far <= s {
		t.Error("distant point must score higher")
	}
}

func TestEvaluateF1Perfect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data, labels := syntheticData(rng, 200, 8)
	f1, err := EvaluateF1(&Mahalanobis{}, data, data, labels, 8.0/200)
	if err != nil {
		t.Fatal(err)
	}
	if f1 < 0.9 {
		t.Errorf("clear anomalies should give F1 >= 0.9, got %g", f1)
	}
}

func TestTPEValidation(t *testing.T) {
	if _, err := NewTPE(nil, 1); err == nil {
		t.Error("empty space must fail")
	}
	if _, err := NewTPE([]Param{{Name: "c", Kind: ParamCat}}, 1); err == nil {
		t.Error("categorical without categories must fail")
	}
	if _, err := NewTPE([]Param{{Name: "x", Kind: ParamFloat, Lo: 2, Hi: 1}}, 1); err == nil {
		t.Error("inverted range must fail")
	}
	if _, err := NewTPE([]Param{{Name: "x", Kind: ParamFloat, Lo: -1, Hi: 1, Log: true}}, 1); err == nil {
		t.Error("log scale with non-positive lo must fail")
	}
}

func TestTPEConvergesOnQuadratic(t *testing.T) {
	// Minimize (x-3)^2 + (y+1)^2 over [-10,10]^2.
	space := []Param{
		{Name: "x", Kind: ParamFloat, Lo: -10, Hi: 10},
		{Name: "y", Kind: ParamFloat, Lo: -10, Hi: 10},
	}
	tpe, err := NewTPE(space, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		a := tpe.Suggest()
		x, y := a.Nums["x"], a.Nums["y"]
		tpe.Observe(a, (x-3)*(x-3)+(y+1)*(y+1))
	}
	best, ok := tpe.Best()
	if !ok {
		t.Fatal("no best trial")
	}
	if best.Loss > 2.0 {
		t.Errorf("TPE best loss %g too high after 80 trials", best.Loss)
	}
}

func TestTPEBeatsRandomOnAverage(t *testing.T) {
	// E8 core claim: at equal budget, TPE's best loss should beat random
	// search on a moderately hard objective, averaged over seeds.
	space := []Param{
		{Name: "x", Kind: ParamFloat, Lo: 0, Hi: 1},
		{Name: "y", Kind: ParamFloat, Lo: 0, Hi: 1},
		{Name: "z", Kind: ParamFloat, Lo: 0, Hi: 1},
	}
	objective := func(a Assignment) float64 {
		x, y, z := a.Nums["x"], a.Nums["y"], a.Nums["z"]
		return (x-0.8)*(x-0.8) + 2*(y-0.2)*(y-0.2) + 0.5*(z-0.6)*(z-0.6)
	}
	budget := 60
	var tpeTotal, rndTotal float64
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		tpe, _ := NewTPE(space, seed)
		for i := 0; i < budget; i++ {
			a := tpe.Suggest()
			tpe.Observe(a, objective(a))
		}
		bt, _ := tpe.Best()
		tpeTotal += bt.Loss

		rnd, _ := NewRandomSearch(space, seed)
		for i := 0; i < budget; i++ {
			a := rnd.Suggest()
			rnd.Observe(a, objective(a))
		}
		br, _ := rnd.Best()
		rndTotal += br.Loss
	}
	if tpeTotal >= rndTotal {
		t.Errorf("TPE mean best loss %g must beat random %g", tpeTotal/8, rndTotal/8)
	}
}

func TestSelectModelFindsGoodDetector(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	train, _ := syntheticData(rng, 200, 0)
	val, labels := syntheticData(rng, 200, 10)
	tpe, err := NewTPE(DetectorSpace(), 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SelectModel(train, val, labels, 10.0/200, 30, tpe)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestF1 < 0.8 {
		t.Errorf("model selection best F1 = %g, want >= 0.8", res.BestF1)
	}
	if res.Detector == nil {
		t.Error("result must carry a fitted detector")
	}
	if res.Trials != 30 {
		t.Errorf("trials = %d, want 30", res.Trials)
	}
}

func TestDetectionNodeJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	train, _ := syntheticData(rng, 200, 0)
	det := &Mahalanobis{}
	if err := det.Fit(train); err != nil {
		t.Fatal(err)
	}
	node := &DetectionNode{Detector: det}
	if err := node.CalibrateThreshold(train, 0.05); err != nil {
		t.Fatal(err)
	}
	batch, labels := syntheticData(rng, 100, 5)
	rep, err := node.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Anomalies) == 0 {
		t.Fatal("planted anomalies must be flagged")
	}
	// All planted anomalies should be among the flagged indexes.
	flagged := make(map[int]bool)
	for _, i := range rep.Anomalies {
		flagged[i] = true
	}
	for i, lab := range labels {
		if lab && !flagged[i] {
			t.Errorf("planted anomaly at %d missed", i)
		}
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, `"anomalies"`) || !strings.Contains(js, `"threshold"`) {
		t.Errorf("JSON missing fields: %s", js)
	}
}

func TestBuildDetectorUnknown(t *testing.T) {
	a := newAssignment()
	a.Cats["detector"] = "oracle"
	if _, err := BuildDetector(a); err == nil {
		t.Error("unknown detector must fail")
	}
}
