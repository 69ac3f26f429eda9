package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"everest/internal/condrust"
)

// GPSPoint is one floating-car-data sample.
type GPSPoint struct {
	Pos  Point
	Time float64 // seconds since trip start
}

// Trace is one vehicle trip: noisy GPS points plus (for evaluation) the true
// edge sequence.
type Trace struct {
	Points    []GPSPoint
	TrueEdges []int
}

// SimulateTrip drives a vehicle for `hops` edges — along a shortest path
// when one of that length exists, otherwise a U-turn-free random walk —
// sampling GPS points every sampleEvery meters with Gaussian noise: the
// "sparse and noisy FCD points" of §II-D.
func SimulateTrip(net *Network, seed int64, hops int, noiseStd, sampleEvery float64) (*Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 40; attempt++ {
		var path []int
		if attempt < 20 {
			from := NodeID(rng.Intn(len(net.Nodes)))
			to := NodeID(rng.Intn(len(net.Nodes)))
			if from == to {
				continue
			}
			sp, _, err := net.ShortestPath(from, to)
			if err != nil || len(sp) < hops {
				continue
			}
			path = sp[:hops]
		} else {
			// Random walk without immediate reversal.
			cur := NodeID(rng.Intn(len(net.Nodes)))
			prev := NodeID(-1)
			for len(path) < hops {
				outs := net.Out(cur)
				var choices []int
				for _, eid := range outs {
					if net.Edges[eid].To != prev {
						choices = append(choices, eid)
					}
				}
				if len(choices) == 0 {
					choices = outs
				}
				eid := choices[rng.Intn(len(choices))]
				path = append(path, eid)
				prev = cur
				cur = net.Edges[eid].To
			}
		}
		tr := &Trace{TrueEdges: path}
		travelled := 0.0
		next := 0.0
		t := 0.0
		for _, eid := range path {
			e := net.Edges[eid]
			a := net.Nodes[e.From]
			b := net.Nodes[e.To]
			for next <= travelled+e.Length {
				frac := (next - travelled) / e.Length
				pos := Point{X: a.X + frac*(b.X-a.X), Y: a.Y + frac*(b.Y-a.Y)}
				noisy := Point{X: pos.X + rng.NormFloat64()*noiseStd, Y: pos.Y + rng.NormFloat64()*noiseStd}
				tr.Points = append(tr.Points, GPSPoint{Pos: noisy, Time: t + frac*e.Length/e.SpeedLim})
				next += sampleEvery
			}
			travelled += e.Length
			t += e.Length / e.SpeedLim
		}
		if len(tr.Points) >= 2 {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("traffic: could not simulate a trip with %d hops", hops)
}

// Candidate is one map-matching candidate: a GPS point projected on an edge.
type Candidate struct {
	Edge int
	Pos  Point
	Dist float64 // projection distance (m)
}

// Projection is stage 1 of the Fig. 4 pipeline (the stage the paper marks
// #[kernel(offloaded = true)]): for every GPS point, find the candidate
// edges within the search radius, keeping at most maxCand per point.
func Projection(net *Network, points []GPSPoint, radius float64, maxCand int) ([][]Candidate, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("traffic: no GPS points")
	}
	if maxCand < 1 {
		maxCand = 4
	}
	out := make([][]Candidate, len(points))
	for i, p := range points {
		var cands []Candidate
		for e := range net.Edges {
			proj, d := net.ProjectOntoEdge(e, p.Pos)
			if d <= radius {
				cands = append(cands, Candidate{Edge: e, Pos: proj, Dist: d})
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("traffic: GPS point %d has no candidates within %gm", i, radius)
		}
		// Keep the closest maxCand (selection by partial sort).
		for a := 0; a < len(cands) && a < maxCand; a++ {
			best := a
			for b := a + 1; b < len(cands); b++ {
				if cands[b].Dist < cands[best].Dist {
					best = b
				}
			}
			cands[a], cands[best] = cands[best], cands[a]
		}
		if len(cands) > maxCand {
			cands = cands[:maxCand]
		}
		out[i] = cands
	}
	return out, nil
}

// Trellis is stage 2: the HMM lattice with emission and transition weights.
type Trellis struct {
	// Emission[i][c] is the log emission probability of candidate c at
	// point i.
	Emission [][]float64
	// Trans[i][c][d] is the log transition probability from candidate c at
	// point i to candidate d at point i+1.
	Trans [][][]float64
	Cands [][]Candidate
}

// BuildTrellis is stage 2 of Fig. 4: Gaussian emissions on projection
// distance, exponential transition penalty on the difference between the
// great-circle and route distances (Newson–Krumm).
func BuildTrellis(net *Network, points []GPSPoint, cands [][]Candidate, gpsSigma, beta float64) (*Trellis, error) {
	if len(points) != len(cands) {
		return nil, fmt.Errorf("traffic: %d points but %d candidate sets", len(points), len(cands))
	}
	if gpsSigma <= 0 {
		gpsSigma = 10
	}
	if beta <= 0 {
		beta = 30
	}
	tr := &Trellis{Cands: cands}
	for i := range points {
		em := make([]float64, len(cands[i]))
		for c, cand := range cands[i] {
			em[c] = -cand.Dist * cand.Dist / (2 * gpsSigma * gpsSigma)
		}
		tr.Emission = append(tr.Emission, em)
	}
	for i := 0; i+1 < len(points); i++ {
		straight := points[i].Pos.Dist(points[i+1].Pos)
		layer := make([][]float64, len(cands[i]))
		for c, cc := range cands[i] {
			row := make([]float64, len(cands[i+1]))
			for d, cd := range cands[i+1] {
				route := net.RouteDistance(cc.Edge, cc.Pos, cd.Edge, cd.Pos)
				row[d] = -math.Abs(route-straight) / beta
			}
			layer[c] = row
		}
		tr.Trans = append(tr.Trans, layer)
	}
	return tr, nil
}

// Viterbi is stage 3: the maximum a-posteriori candidate sequence.
func Viterbi(tr *Trellis) ([]int, error) {
	n := len(tr.Emission)
	if n == 0 {
		return nil, fmt.Errorf("traffic: empty trellis")
	}
	score := make([][]float64, n)
	back := make([][]int, n)
	score[0] = append([]float64(nil), tr.Emission[0]...)
	for i := 1; i < n; i++ {
		score[i] = make([]float64, len(tr.Emission[i]))
		back[i] = make([]int, len(tr.Emission[i]))
		for d := range tr.Emission[i] {
			best := math.Inf(-1)
			arg := 0
			for c := range tr.Emission[i-1] {
				s := score[i-1][c] + tr.Trans[i-1][c][d]
				if s > best {
					best = s
					arg = c
				}
			}
			score[i][d] = best + tr.Emission[i][d]
			back[i][d] = arg
		}
	}
	// Backtrack.
	bestEnd := 0
	for d := range score[n-1] {
		if score[n-1][d] > score[n-1][bestEnd] {
			bestEnd = d
		}
	}
	path := make([]int, n)
	path[n-1] = bestEnd
	for i := n - 1; i > 0; i-- {
		path[i-1] = back[i][path[i]]
	}
	return path, nil
}

// MatchResult is stage 4's output: the matched edges per GPS point and the
// road-speed vector derived from timestamps.
type MatchResult struct {
	Edges      []int           // matched edge per point
	RoadSpeeds map[int]float64 // edge -> observed speed (m/s)
}

// Interpolate is stage 4 of Fig. 4: derive per-edge observed speeds from
// the matched positions and timestamps.
func Interpolate(net *Network, points []GPSPoint, cands [][]Candidate, path []int) (*MatchResult, error) {
	if len(path) != len(points) {
		return nil, fmt.Errorf("traffic: path length mismatch")
	}
	res := &MatchResult{RoadSpeeds: make(map[int]float64)}
	counts := make(map[int]int)
	for i, c := range path {
		res.Edges = append(res.Edges, cands[i][c].Edge)
	}
	for i := 0; i+1 < len(points); i++ {
		dt := points[i+1].Time - points[i].Time
		if dt <= 0 {
			continue
		}
		d := net.RouteDistance(res.Edges[i], cands[i][path[i]].Pos,
			res.Edges[i+1], cands[i+1][path[i+1]].Pos)
		speed := d / dt
		e := res.Edges[i]
		res.RoadSpeeds[e] = (res.RoadSpeeds[e]*float64(counts[e]) + speed) / float64(counts[e]+1)
		counts[e]++
	}
	return res, nil
}

// MatchTrace composes the four stages (the match_one function of Fig. 4).
func MatchTrace(net *Network, trace *Trace, radius, gpsSigma, beta float64, maxCand int) (*MatchResult, error) {
	cands, err := Projection(net, trace.Points, radius, maxCand)
	if err != nil {
		return nil, err
	}
	tr, err := BuildTrellis(net, trace.Points, cands, gpsSigma, beta)
	if err != nil {
		return nil, err
	}
	path, err := Viterbi(tr)
	if err != nil {
		return nil, err
	}
	return Interpolate(net, trace.Points, cands, path)
}

// MatchAccuracy returns the fraction of GPS points matched to their true
// edge (or its reverse twin, which is indistinguishable for on-road points).
func MatchAccuracy(net *Network, trace *Trace, res *MatchResult) float64 {
	if len(res.Edges) == 0 {
		return 0
	}
	onTrue := 0
	trueSet := make(map[NodeID]map[NodeID]bool)
	for _, eid := range trace.TrueEdges {
		e := net.Edges[eid]
		if trueSet[e.From] == nil {
			trueSet[e.From] = make(map[NodeID]bool)
		}
		trueSet[e.From][e.To] = true
	}
	for _, eid := range res.Edges {
		e := net.Edges[eid]
		if trueSet[e.From][e.To] || trueSet[e.To][e.From] {
			onTrue++
		}
	}
	return float64(onTrue) / float64(len(res.Edges))
}

// MatchActors exposes the four pipeline stages as ConDRust actors, wiring
// the Fig. 4 program to real implementations (experiment E10).
func MatchActors(net *Network, radius, gpsSigma, beta float64, maxCand int) condrust.FuncRegistry {
	return condrust.FuncRegistry{
		"projection": func(args []interface{}) (interface{}, error) {
			pts := args[0].([]GPSPoint)
			return Projection(net, pts, radius, maxCand)
		},
		"build_trellis": func(args []interface{}) (interface{}, error) {
			pts := args[0].([]GPSPoint)
			cands := args[1].([][]Candidate)
			return BuildTrellis(net, pts, cands, gpsSigma, beta)
		},
		"viterbi": func(args []interface{}) (interface{}, error) {
			tr := args[0].(*Trellis)
			return Viterbi(tr)
		},
		"interpolate": func(args []interface{}) (interface{}, error) {
			pts := args[0].([]GPSPoint)
			cands := args[1].([][]Candidate)
			path := args[2].([]int)
			return Interpolate(net, pts, cands, path)
		},
	}
}

// Fig4Source is the coordination program of the paper's Fig. 4, adapted to
// the actor signatures above.
const Fig4Source = `
fn match_one(gv: GpsVector, mapcell: MapCell) -> RoadSpeedVector {
    #[kernel(offloaded = true, multiplicity = [1, 1, 1, 1],
             path = "projection.cpp")]
    let cv: CandiVector = projection(gv);
    let t: Trellis = build_trellis(gv, cv);
    let rsvbb: Path = viterbi(t);
    interpolate(gv, cv, rsvbb)
}
`
