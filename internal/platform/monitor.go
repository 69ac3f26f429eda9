package platform

import "sort"

// Monitor is the per-node observation layer of the adaptive resource
// manager (paper §VI-A/§VI-C): it aggregates what actually happened on each
// node — task completions, their latencies, and the ratio of observed to
// nominal execution time — so schedulers and autotuners can react to the
// current environment instead of the design-time model.
//
// The slowdown estimate is learned, not read: the monitor never looks at
// the fault injected via Node.SetSlowdown, it infers the factor from the
// observed/nominal ratio of completed software tasks (EWMA). A freshly
// slowed node therefore mispredicts for its first task or two and then
// converges, which is exactly the adaptation transient experiment E-adapt
// measures.
//
// Nodes are addressed by their index in Cluster.Nodes, the way the engine
// addresses them, so feeding a completion looks nothing up by name.
//
// A Monitor is not safe for concurrent use: the engine that owns it feeds
// and reads it only under its serve lock.
type Monitor struct {
	cluster *Cluster
	obs     []nodeObs // indexed like cluster.Nodes at NewMonitor
}

// nodeObs is one node's accumulated observations.
type nodeObs struct {
	tasks       int
	ewmaLatency float64
	ewmaRatio   float64 // observed/nominal software execution time
	hasRatio    bool
}

// ewmaAlpha weights new observations; 0.5 matches the autotuner's default
// so both adaptation loops react at the same rate.
const ewmaAlpha = 0.5

// NewMonitor builds a monitor over a cluster, with one empty record per
// node it has now.
func NewMonitor(c *Cluster) *Monitor {
	return &Monitor{cluster: c, obs: make([]nodeObs, len(c.Nodes))}
}

// RecordTask records one completed task's modelled latency on node
// c.Nodes[node].
func (m *Monitor) RecordTask(node int, latency float64) {
	o := &m.obs[node]
	if o.tasks == 0 {
		o.ewmaLatency = latency
	} else {
		o.ewmaLatency = (1-ewmaAlpha)*o.ewmaLatency + ewmaAlpha*latency
	}
	o.tasks++
}

// ObserveRatio feeds one observed/nominal execution-time pair for a
// software task. Nominal is the design-time cost model's prediction; the
// ratio tracks the node's real load.
func (m *Monitor) ObserveRatio(node int, observed, nominal float64) {
	if nominal <= 0 {
		return
	}
	ratio := observed / nominal
	o := &m.obs[node]
	if !o.hasRatio {
		o.ewmaRatio = ratio
		o.hasRatio = true
	} else {
		o.ewmaRatio = (1-ewmaAlpha)*o.ewmaRatio + ewmaAlpha*ratio
	}
}

// SlowdownEstimate returns the learned load factor of node c.Nodes[node]
// (1 = nominal until evidence arrives).
func (m *Monitor) SlowdownEstimate(node int) float64 {
	o := &m.obs[node]
	if !o.hasRatio || o.ewmaRatio < 1 {
		return 1
	}
	return o.ewmaRatio
}

// NodeHealth is one node's monitor snapshot.
type NodeHealth struct {
	Node          string
	Tasks         int     // completed tasks observed
	EWMALatency   float64 // modelled seconds
	SlowdownEst   float64 // learned load factor (>= 1)
	DevicesOnline int
	DevicesTotal  int
	Failed        bool
}

// Snapshot returns the health of every cluster node, sorted by name.
func (m *Monitor) Snapshot() []NodeHealth {
	out := make([]NodeHealth, 0, len(m.cluster.Nodes))
	for i, n := range m.cluster.Nodes {
		h := NodeHealth{Node: n.Name, SlowdownEst: 1, DevicesTotal: len(n.Devices)}
		if i < len(m.obs) {
			o := &m.obs[i]
			h.Tasks = o.tasks
			h.EWMALatency = o.ewmaLatency
			if o.hasRatio && o.ewmaRatio > 1 {
				h.SlowdownEst = o.ewmaRatio
			}
		}
		for idx := range n.Devices {
			if n.DeviceOnline(idx) {
				h.DevicesOnline++
			}
		}
		_, h.Failed = n.FailedAt()
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
