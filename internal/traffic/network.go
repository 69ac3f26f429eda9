// Package traffic implements the traffic modeling and prediction use case
// (paper §II-D, §VIII): a road-network model fed by floating car data (FCD),
// HMM map matching of sparse and noisy GPS points (the Fig. 4 pipeline:
// projection → trellis → Viterbi → interpolation), Gaussian-mixture traffic
// prediction robust to incomplete data, a convolutional speed predictor, and
// probabilistic time-dependent routing (PTDR) by Monte-Carlo simulation —
// the kernel the paper deploys on Alveo u55c FPGAs.
package traffic

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// NodeID identifies a network node (intersection).
type NodeID int

// Point is a planar coordinate in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Edge is a directed road segment.
type Edge struct {
	ID       int
	From, To NodeID
	Length   float64 // meters
	SpeedLim float64 // m/s free-flow speed
}

// Network is a directed road graph.
type Network struct {
	Nodes []Point
	Edges []Edge
	out   map[NodeID][]int // node -> outgoing edge IDs
}

// GridNetwork builds an nx×ny Manhattan grid with bidirectional streets.
// Spacing is the block length in meters.
func GridNetwork(nx, ny int, spacing float64, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := &Network{out: make(map[NodeID][]int)}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			n.Nodes = append(n.Nodes, Point{X: float64(i) * spacing, Y: float64(j) * spacing})
		}
	}
	id := func(i, j int) NodeID { return NodeID(j*nx + i) }
	addBoth := func(a, b NodeID) {
		length := n.Nodes[a].Dist(n.Nodes[b])
		// Mix of arterials (~60 km/h) and side streets (~30 km/h).
		speed := 8.3
		if rng.Float64() < 0.3 {
			speed = 16.7
		}
		for _, pair := range [][2]NodeID{{a, b}, {b, a}} {
			e := Edge{ID: len(n.Edges), From: pair[0], To: pair[1], Length: length, SpeedLim: speed}
			n.Edges = append(n.Edges, e)
			n.out[pair[0]] = append(n.out[pair[0]], e.ID)
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				addBoth(id(i, j), id(i+1, j))
			}
			if j+1 < ny {
				addBoth(id(i, j), id(i, j+1))
			}
		}
	}
	return n
}

// Out returns the outgoing edge IDs of a node.
func (n *Network) Out(v NodeID) []int { return n.out[v] }

// ProjectOntoEdge returns the closest point on edge e to p and its distance.
func (n *Network) ProjectOntoEdge(e int, p Point) (Point, float64) {
	a := n.Nodes[n.Edges[e].From]
	b := n.Nodes[n.Edges[e].To]
	abx, aby := b.X-a.X, b.Y-a.Y
	l2 := abx*abx + aby*aby
	t := 0.0
	if l2 > 0 {
		t = ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / l2
		t = math.Max(0, math.Min(1, t))
	}
	proj := Point{X: a.X + t*abx, Y: a.Y + t*aby}
	return proj, proj.Dist(p)
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node NodeID
	cost float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath returns the minimum free-flow travel-time path between two
// nodes as edge IDs, plus the travel time in seconds. It returns an error if
// no path exists.
func (n *Network) ShortestPath(from, to NodeID) ([]int, float64, error) {
	if int(from) >= len(n.Nodes) || int(to) >= len(n.Nodes) || from < 0 || to < 0 {
		return nil, 0, fmt.Errorf("traffic: node out of range")
	}
	const inf = math.MaxFloat64
	dist := make(map[NodeID]float64, len(n.Nodes))
	prevEdge := make(map[NodeID]int, len(n.Nodes))
	q := &pq{{node: from, cost: 0}}
	dist[from] = 0
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.node == to {
			break
		}
		if d, ok := dist[it.node]; ok && it.cost > d {
			continue
		}
		for _, eid := range n.out[it.node] {
			e := n.Edges[eid]
			nd := it.cost + e.Length/e.SpeedLim
			if cur, ok := dist[e.To]; !ok || nd < cur {
				dist[e.To] = nd
				prevEdge[e.To] = eid
				heap.Push(q, pqItem{node: e.To, cost: nd})
			}
		}
	}
	d, ok := dist[to]
	if !ok || d == inf {
		return nil, 0, fmt.Errorf("traffic: no path from %d to %d", from, to)
	}
	// Reconstruct.
	var rev []int
	cur := to
	for cur != from {
		eid, ok := prevEdge[cur]
		if !ok {
			return nil, 0, fmt.Errorf("traffic: path reconstruction failed")
		}
		rev = append(rev, eid)
		cur = n.Edges[eid].From
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path, d, nil
}

// RouteDistance returns the network travel distance (m) between two points
// located on two edges, approximated as projection offsets plus the
// shortest path between edge endpoints.
func (n *Network) RouteDistance(eA int, pA Point, eB int, pB Point) float64 {
	if eA == eB {
		return pA.Dist(pB)
	}
	a := n.Edges[eA]
	b := n.Edges[eB]
	// Distance from pA to the end of its edge, path, then start of eB to pB.
	head := pA.Dist(n.Nodes[a.To])
	tail := n.Nodes[b.From].Dist(pB)
	path, _, err := n.ShortestPath(a.To, b.From)
	if err != nil {
		return math.MaxFloat64 / 4
	}
	mid := 0.0
	for _, eid := range path {
		mid += n.Edges[eid].Length
	}
	return head + mid + tail
}
