package traffic

import (
	"math"
	"math/rand"
	"testing"

	"everest/internal/condrust"
	"everest/internal/hls"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	return GridNetwork(6, 6, 200, 1)
}

func TestGridNetworkStructure(t *testing.T) {
	n := GridNetwork(3, 3, 100, 1)
	if len(n.Nodes) != 9 {
		t.Fatalf("nodes = %d, want 9", len(n.Nodes))
	}
	// 12 undirected streets -> 24 directed edges.
	if len(n.Edges) != 24 {
		t.Fatalf("edges = %d, want 24", len(n.Edges))
	}
	// Corner has 2 outgoing, center has 4.
	if len(n.Out(0)) != 2 {
		t.Errorf("corner out-degree = %d", len(n.Out(0)))
	}
	if len(n.Out(4)) != 4 {
		t.Errorf("center out-degree = %d", len(n.Out(4)))
	}
}

func TestShortestPath(t *testing.T) {
	n := testNet(t)
	path, cost, err := n.ShortestPath(0, 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 || cost <= 0 {
		t.Fatal("degenerate path")
	}
	// Path must be connected and start/end correctly.
	if n.Edges[path[0]].From != 0 {
		t.Error("path must start at origin")
	}
	if n.Edges[path[len(path)-1]].To != 35 {
		t.Error("path must end at destination")
	}
	for i := 0; i+1 < len(path); i++ {
		if n.Edges[path[i]].To != n.Edges[path[i+1]].From {
			t.Fatal("path edges must chain")
		}
	}
	if _, _, err := n.ShortestPath(0, 999); err == nil {
		t.Error("out-of-range node must error")
	}
	// Trivial path.
	same, cost0, err := n.ShortestPath(3, 3)
	if err != nil || len(same) != 0 || cost0 != 0 {
		t.Error("self path must be empty and free")
	}
}

func TestProjectOntoEdge(t *testing.T) {
	n := GridNetwork(2, 1, 100, 1) // single street 0-1
	proj, d := n.ProjectOntoEdge(0, Point{X: 50, Y: 30})
	if math.Abs(proj.X-50) > 1e-9 || proj.Y != 0 {
		t.Errorf("projection = %+v", proj)
	}
	if math.Abs(d-30) > 1e-9 {
		t.Errorf("distance = %g, want 30", d)
	}
	// Beyond the segment end clamps.
	projEnd, _ := n.ProjectOntoEdge(0, Point{X: 150, Y: 0})
	if projEnd.X != 100 {
		t.Errorf("clamped projection = %+v", projEnd)
	}
}

func TestSimulateTripDeterministic(t *testing.T) {
	n := testNet(t)
	a, err := SimulateTrip(n, 5, 6, 8, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTrip(n, 5, 6, 8, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatal("trip simulation must be deterministic")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("trip points must match across runs")
		}
	}
	if len(a.TrueEdges) != 6 {
		t.Errorf("true edges = %d, want 6", len(a.TrueEdges))
	}
}

func TestMapMatchingRecoversRoute(t *testing.T) {
	n := testNet(t)
	for seed := int64(2); seed < 8; seed++ {
		trace, err := SimulateTrip(n, seed, 8, 10, 80)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MatchTrace(n, trace, 60, 10, 30, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		acc := MatchAccuracy(n, trace, res)
		if acc < 0.8 {
			t.Errorf("seed %d: match accuracy %.2f < 0.8", seed, acc)
		}
	}
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	n := testNet(t)
	for seed := int64(10); seed < 16; seed++ {
		trace, err := SimulateTrip(n, seed, 4, 12, 120)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace.Points) > 7 {
			trace.Points = trace.Points[:7] // keep brute force tractable
		}
		cands, err := Projection(n, trace.Points, 80, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := BuildTrellis(n, trace.Points, cands, 10, 30)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Viterbi(tr)
		if err != nil {
			t.Fatal(err)
		}
		brute := viterbiBrute(tr)
		score := func(path []int) float64 {
			s := tr.Emission[0][path[0]]
			for i := 1; i < len(path); i++ {
				s += tr.Trans[i-1][path[i-1]][path[i]] + tr.Emission[i][path[i]]
			}
			return s
		}
		if math.Abs(score(fast)-score(brute)) > 1e-9 {
			t.Fatalf("seed %d: Viterbi score %g != brute force %g", seed, score(fast), score(brute))
		}
	}
}

func TestProjectionErrors(t *testing.T) {
	n := testNet(t)
	if _, err := Projection(n, nil, 50, 4); err == nil {
		t.Error("no points must fail")
	}
	far := []GPSPoint{{Pos: Point{X: 1e7, Y: 1e7}}}
	if _, err := Projection(n, far, 50, 4); err == nil {
		t.Error("point with no candidates must fail")
	}
}

func TestMatchActorsRunFig4(t *testing.T) {
	// E10 wiring: parse the Fig. 4 ConDRust program, bind the real stages,
	// and execute the dataflow graph end to end.
	n := testNet(t)
	prog, err := condrust.Parse(Fig4Source)
	if err != nil {
		t.Fatal(err)
	}
	g, err := condrust.BuildGraph(prog.Find("match_one"))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := SimulateTrip(n, 3, 8, 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	reg := MatchActors(n, 60, 10, 30, 4)
	out, err := g.Execute(reg, map[string]interface{}{
		"gv": trace.Points, "mapcell": struct{}{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := out.(*MatchResult)
	if !ok {
		t.Fatalf("unexpected result type %T", out)
	}
	if acc := MatchAccuracy(n, trace, res); acc < 0.8 {
		t.Errorf("dataflow pipeline accuracy %.2f < 0.8", acc)
	}
}

func TestGMMFitsBimodalSpeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var data [][]float64
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			data = append(data, []float64{8 + rng.NormFloat64()})
		} else {
			data = append(data, []float64{16 + rng.NormFloat64()})
		}
	}
	g := NewGMM(2, 1)
	history, err := g.Fit(data, 1, 50, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// EM likelihood must be non-decreasing.
	for i := 1; i < len(history); i++ {
		if history[i] < history[i-1]-1e-6 {
			t.Fatalf("EM likelihood decreased at iter %d: %g -> %g", i, history[i-1], history[i])
		}
	}
	means := []float64{g.Mean[0][0], g.Mean[1][0]}
	if means[0] > means[1] {
		means[0], means[1] = means[1], means[0]
	}
	if math.Abs(means[0]-8) > 1.0 || math.Abs(means[1]-16) > 1.0 {
		t.Errorf("GMM means %v, want ~[8 16]", means)
	}
}

func TestGMMIncompleteData(t *testing.T) {
	// Two correlated features; 30% of second feature missing. The mixture
	// must still recover structure and predict the missing dimension.
	rng := rand.New(rand.NewSource(4))
	var data [][]float64
	for i := 0; i < 400; i++ {
		base := 8.0
		if i%2 == 1 {
			base = 16
		}
		x := base + rng.NormFloat64()*0.8
		y := 2*base + rng.NormFloat64()*0.8
		if rng.Float64() < 0.3 {
			y = math.NaN()
		}
		data = append(data, []float64{x, y})
	}
	g := NewGMM(2, 2)
	if _, err := g.Fit(data, 2, 60, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Predict missing y for a point from the low cluster.
	pred := g.Predict([]float64{8, math.NaN()}, 1)
	if math.Abs(pred-16) > 2.5 {
		t.Errorf("conditional prediction %g, want ~16", pred)
	}
	predHi := g.Predict([]float64{16, math.NaN()}, 1)
	if math.Abs(predHi-32) > 2.5 {
		t.Errorf("conditional prediction %g, want ~32", predHi)
	}
}

func TestGMMValidation(t *testing.T) {
	g := NewGMM(3, 1)
	if _, err := g.Fit([][]float64{{1}}, 1, 10, 1e-6); err == nil {
		t.Error("too few samples must fail")
	}
	bad := [][]float64{{math.NaN()}, {1}, {2}, {3}, {4}, {5}}
	if _, err := g.Fit(bad, 1, 10, 1e-6); err == nil {
		t.Error("all-missing sample must fail")
	}
}

func TestCNNLearnsRushHour(t *testing.T) {
	var curves [][]float64
	for d := int64(0); d < 6; d++ {
		curves = append(curves, DailySpeedCurve(14, d))
	}
	xs, ys := WindowDataset(curves, 8)
	cnn, err := NewCNN(8, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cnn.Fit(xs, ys, 300, 3e-2); err != nil {
		t.Fatal(err)
	}
	// Evaluate on an unseen day against persistence.
	test := DailySpeedCurve(14, 99)
	txs, tys := WindowDataset([][]float64{test}, 8)
	var cnnErr, persErr float64
	for i := range txs {
		p, err := cnn.Predict(txs[i])
		if err != nil {
			t.Fatal(err)
		}
		cnnErr += math.Abs(p - tys[i])
		persErr += math.Abs(txs[i][len(txs[i])-1] - tys[i])
	}
	if cnnErr >= persErr {
		t.Errorf("CNN MAE %g must beat persistence %g", cnnErr/float64(len(txs)), persErr/float64(len(txs)))
	}
}

func TestCNNValidation(t *testing.T) {
	if _, err := NewCNN(4, 8, 2, 1); err == nil {
		t.Error("kernel > window must fail")
	}
	cnn, _ := NewCNN(8, 3, 2, 1)
	if _, err := cnn.Predict([]float64{1, 2}); err == nil {
		t.Error("wrong window must fail")
	}
	if _, err := cnn.Fit(nil, nil, 1, 0.1); err == nil {
		t.Error("empty training set must fail")
	}
}

func TestPTDRQuantiles(t *testing.T) {
	n := testNet(t)
	profile := BuildProfile(n, 7)
	route, _, err := n.ShortestPath(0, 35)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MonteCarlo(n, profile, route, 8.5*3600, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P05 < res.P50 && res.P50 < res.P95) {
		t.Errorf("quantiles must be ordered: %g %g %g", res.P05, res.P50, res.P95)
	}
	if res.P05 <= 0 {
		t.Error("travel time must be positive")
	}
	// Departing in the evening rush must be slower than at night.
	night, err := MonteCarlo(n, profile, route, 3*3600, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	rush, err := MonteCarlo(n, profile, route, 17.5*3600, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rush.P50 <= night.P50 {
		t.Errorf("rush-hour median %g must exceed night median %g", rush.P50, night.P50)
	}
}

func TestPTDRConvergence(t *testing.T) {
	// More samples -> quantile estimates stabilize (E9's sample sweep).
	n := testNet(t)
	profile := BuildProfile(n, 8)
	route, _, err := n.ShortestPath(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MonteCarlo(n, profile, route, 9*3600, 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	small1, _ := MonteCarlo(n, profile, route, 9*3600, 200, 2)
	small2, _ := MonteCarlo(n, profile, route, 9*3600, 20000, 3)
	err1 := math.Abs(small1.P95 - big.P95)
	err2 := math.Abs(small2.P95 - big.P95)
	if err2 >= err1 {
		t.Errorf("P95 estimate must improve with samples: %g (200) vs %g (20000)", err1, err2)
	}
}

func TestPTDRErrors(t *testing.T) {
	n := testNet(t)
	profile := BuildProfile(n, 1)
	if _, err := MonteCarlo(n, profile, nil, 0, 100, 1); err == nil {
		t.Error("empty route must fail")
	}
	route, _, _ := n.ShortestPath(0, 1)
	if _, err := MonteCarlo(n, profile, route, 0, 0, 1); err == nil {
		t.Error("zero samples must fail")
	}
}

func TestPTDRKernelSchedulable(t *testing.T) {
	k := PTDRKernel(100, 10000)
	if k.Nest.Trips() != 100*10000 {
		t.Error("trip count wrong")
	}
	if _, err := hls.Schedule(k, hls.Directives{PipelineEnabled: true}, hls.VitisBackend{}); err != nil {
		t.Errorf("PTDR kernel must schedule: %v", err)
	}
}

// viterbiBrute enumerates all candidate sequences (exponential; the
// oracle for Viterbi optimality on tiny traces).
func viterbiBrute(tr *Trellis) []int {
	n := len(tr.Emission)
	var best []int
	bestScore := math.Inf(-1)
	cur := make([]int, n)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if i == n {
			if acc > bestScore {
				bestScore = acc
				best = append([]int(nil), cur...)
			}
			return
		}
		for c := range tr.Emission[i] {
			add := tr.Emission[i][c]
			if i > 0 {
				add += tr.Trans[i-1][cur[i-1]][c]
			}
			cur[i] = c
			rec(i+1, acc+add)
		}
	}
	rec(0, 0)
	return best
}
