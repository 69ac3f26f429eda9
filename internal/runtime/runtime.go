// Package runtime implements the EVEREST resource manager (paper §VI-A):
// a Dask-like task-graph API over the simulated heterogeneous cluster, a
// cost-aware list scheduler that (1) respects dependencies and resource
// requests, (2) load-balances, (3) inserts inter-node data transfers, and
// (4) monitors the cluster and reschedules tasks when a node fails.
//
// Two execution layers share the Workflow/TaskSpec API. Scheduler is the
// serial planner: it maps one workflow ahead of time and returns its
// Schedule. Engine is the concurrent engine: an event loop over per-node
// work queues, run on the submitter's goroutine, that multiplexes many
// workflows from many tenants onto the same cluster, with batched
// inter-node transfers, round-robin tenant fairness, and reactive
// rescheduling when a node fails mid-run.
//
// The public API mirrors the paper's description: applications submit tasks
// with minimal modification ("Dask-like API ... extended with
// EVEREST-specific features, mainly to specify the resource requests and the
// possibility of kernel fine-tuning").
package runtime

import (
	"fmt"
	"sort"

	"everest/internal/autotuner"
	"everest/internal/dataset"
	"everest/internal/platform"
)

// TaskSpec describes one workflow task and its EVEREST resource request.
type TaskSpec struct {
	Name string
	Deps []string

	// Software cost model.
	Flops       float64
	InputBytes  int64
	OutputBytes int64
	Cores       int

	// Named data plane (dataset tier). Reads and Writes name the dataset
	// partitions the task consumes and produces. On this path
	// InputBytes/OutputBytes are derived from the refs at Submit time
	// (declared bytes, when nonzero, win — the legacy hand-declared path
	// keeps working unchanged); placement-aware tiers additionally use
	// the refs to price data locality and publish outputs.
	Reads  []dataset.Ref
	Writes []dataset.Ref

	// EVEREST extension: FPGA offload request. When BitstreamID is set and
	// a node with a programmed device is available, the task runs there.
	NeedsFPGA   bool
	BitstreamID string

	// Knobs forwards fine-tuning parameters to the autotuner layer.
	Knobs map[string]string
}

// ReadBytes returns the task's input size: declared InputBytes when
// nonzero, else the sum of its Reads refs (the dataset path).
func (t *TaskSpec) ReadBytes() int64 {
	if t.InputBytes != 0 || len(t.Reads) == 0 {
		return t.InputBytes
	}
	return dataset.Sum(t.Reads)
}

// WriteBytes returns the task's output size: declared OutputBytes when
// nonzero, else the sum of its Writes refs.
func (t *TaskSpec) WriteBytes() int64 {
	if t.OutputBytes != 0 || len(t.Writes) == 0 {
		return t.OutputBytes
	}
	return dataset.Sum(t.Writes)
}

// TotalBytes returns the bytes the task moves through memory (input plus
// output) — the quantity every cost model prices. Dataset-declared specs
// resolve through their refs, so the sum is correct before and after
// Submit normalizes the byte fields.
func (t *TaskSpec) TotalBytes() int64 { return t.ReadBytes() + t.WriteBytes() }

// Workflow is a DAG of tasks (the Dask graph).
type Workflow struct {
	tasks map[string]*TaskSpec
	specs []*TaskSpec // the same specs in submission order

	// variants, when set, are compiler-derived operating points that seed
	// this workflow's variant tuner in adaptive mode (SetVariants).
	variants []autotuner.Variant
}

// NewWorkflow returns an empty workflow.
func NewWorkflow() *Workflow {
	return &Workflow{tasks: make(map[string]*TaskSpec)}
}

// Submit adds a task; dependencies must already be submitted.
func (w *Workflow) Submit(spec TaskSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("runtime: task needs a name")
	}
	if _, dup := w.tasks[spec.Name]; dup {
		return fmt.Errorf("runtime: duplicate task %q", spec.Name)
	}
	for _, d := range spec.Deps {
		if _, ok := w.tasks[d]; !ok {
			return fmt.Errorf("runtime: task %q depends on unknown task %q", spec.Name, d)
		}
	}
	cp := spec
	// Dataset path: derive the modelled byte fields from the refs so every
	// downstream consumer (planner transfers, engine, cost models, bounds)
	// sees the same numbers whether bytes were declared or named.
	cp.InputBytes = cp.ReadBytes()
	cp.OutputBytes = cp.WriteBytes()
	w.tasks[spec.Name] = &cp
	w.specs = append(w.specs, &cp)
	return nil
}

// Tasks returns task names in submission order.
func (w *Workflow) Tasks() []string {
	names := make([]string, len(w.specs))
	for i, t := range w.specs {
		names[i] = t.Name
	}
	return names
}

// Get returns a task spec.
func (w *Workflow) Get(name string) (*TaskSpec, bool) {
	t, ok := w.tasks[name]
	return t, ok
}

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.specs) }

// Range visits every task spec in submission order until fn returns false.
// Unlike Tasks()+Get it allocates nothing, so per-submission scans (the
// fleet router's bitstream-needs pass) stay off the allocator; fn must not
// retain or mutate the spec.
func (w *Workflow) Range(fn func(t *TaskSpec) bool) {
	for _, t := range w.specs {
		if !fn(t) {
			return
		}
	}
}

// SetVariants attaches compiler-derived operating points (expected latency
// per implementation variant) to the workflow. In adaptive mode the engine
// seeds the workflow's autotuner from them instead of re-deriving seeds
// from the task specs — the compiled path of the SDK loop, where every
// expected latency traces back to the HLS schedule and the CPU cost model.
func (w *Workflow) SetVariants(vs []autotuner.Variant) {
	w.variants = append([]autotuner.Variant(nil), vs...)
}

// Variants returns the attached operating points (nil when none).
func (w *Workflow) Variants() []autotuner.Variant {
	return append([]autotuner.Variant(nil), w.variants...)
}

// Policy selects the scheduling strategy.
type Policy int

// Scheduling policies.
const (
	// PolicyHEFT ranks tasks by upward rank and picks the node with the
	// earliest finish time including transfer costs.
	PolicyHEFT Policy = iota
	// PolicyFIFO assigns tasks in submission order to the first free node
	// (the E6 baseline).
	PolicyFIFO
)

func (p Policy) String() string {
	if p == PolicyFIFO {
		return "fifo"
	}
	return "heft"
}

// Assignment records one scheduled task execution.
type Assignment struct {
	Task    string
	Node    string
	Start   float64
	End     float64
	OnFPGA  bool
	Restart bool // true if this run replaces one lost to a node failure
}

// Schedule is the result of planning a workflow.
type Schedule struct {
	Assignments []Assignment
	Makespan    float64
	Transfers   int   // inter-node dependency transfers
	MovedBytes  int64 // total bytes moved between nodes
	Policy      Policy
	Adapt       AdaptStats // adaptation and recovery activity (engine runs)
}

// AdaptStats summarizes one workflow's adaptation activity under the
// concurrent engine: which implementation variants its tasks ran as
// (adaptive mode only — static runs never select variants), how many
// placements had to be redone after environment events or failures, and
// how many FPGA placements executed in software because the device was
// gone by the time they ran (static runs under faults pay these too).
type AdaptStats struct {
	VariantCounts map[string]int // completed tasks per selected variant
	Reschedules   int            // placements invalidated and redone
	Fallbacks     int            // FPGA placements that executed on CPU
}

// ByTask returns the (final) assignment of each task.
func (s *Schedule) ByTask() map[string]Assignment {
	m := make(map[string]Assignment, len(s.Assignments))
	for _, a := range s.Assignments {
		m[a.Task] = a
	}
	return m
}

// NodeFailure injects a node failure at a modelled time (E6 failure test).
type NodeFailure struct {
	Node   string
	AtTime float64
}

// Scheduler plans workflows onto a cluster.
type Scheduler struct {
	Cluster  *platform.Cluster
	Registry *platform.Registry
	Policy   Policy
	Failures []NodeFailure
}

// NewScheduler builds a scheduler.
func NewScheduler(c *platform.Cluster, reg *platform.Registry, p Policy) *Scheduler {
	return &Scheduler{Cluster: c, Registry: reg, Policy: p}
}

// taskCost models one task's execution time on a node.
func (s *Scheduler) taskCost(t *TaskSpec, n *platform.Node) (float64, bool) {
	cost, onFPGA, _ := costOn(t, n)
	return cost, onFPGA
}

// costOn models task t's execution time on node n with the design-time
// model: nominal CPU speed, and FPGA offload assumed reachable whenever the
// bitstream is programmed (attachment faults are invisible to it). Shared
// by the serial planner and the static engine's placement estimates; live
// execution costs come from costLive (adaptive.go).
func costOn(t *TaskSpec, n *platform.Node) (cost float64, onFPGA bool, devIdx int) {
	if c, idx, ok := fpgaCostOn(t, n, designTime); ok {
		return c, true, idx
	}
	return n.RunCPU(t.Flops, t.TotalBytes(), t.Cores), false, -1
}

// Plan schedules the workflow and returns the schedule. The plan is
// deterministic: ties break on node order, then task submission order.
func (s *Scheduler) Plan(w *Workflow) (*Schedule, error) {
	if w.Len() == 0 {
		return &Schedule{Policy: s.Policy}, nil
	}
	order, err := s.taskOrder(w)
	if err != nil {
		return nil, err
	}

	failAt := make(map[string]float64)
	for _, f := range s.Failures {
		failAt[f.Node] = f.AtTime
	}

	sched := &Schedule{Policy: s.Policy}
	nodeFree := make(map[string]float64) // node -> earliest idle time
	taskDone := make(map[string]float64) // task -> completion time
	taskNode := make(map[string]string)  // task -> node holding its output
	alive := func(node string, until float64) bool {
		t, failed := failAt[node]
		return !failed || until <= t
	}

	for _, name := range order {
		task := w.tasks[name]
		bestNode := ""
		bestEnd := 0.0
		bestStart := 0.0
		bestFPGA := false
		bestBytes := int64(0)
		bestTransfers := 0

		for _, n := range s.Cluster.Nodes {
			// Ready time: all deps done plus any transfer of their outputs.
			ready := nodeFree[n.Name]
			var moved int64
			transfers := 0
			for _, d := range task.Deps {
				arrive := taskDone[d]
				if taskNode[d] != n.Name {
					dep := w.tasks[d]
					arrive += s.Cluster.TransferSeconds(taskNode[d], n.Name, dep.OutputBytes)
					moved += dep.OutputBytes
					transfers++
				}
				if arrive > ready {
					ready = arrive
				}
			}
			cost, onFPGA := s.taskCost(task, n)
			end := ready + cost
			if !alive(n.Name, end) {
				continue // node dies before completing this task
			}
			better := bestNode == "" || end < bestEnd ||
				(end == bestEnd && onFPGA && !bestFPGA)
			if s.Policy == PolicyFIFO {
				// FIFO: first node that is idle at the dep-ready time wins;
				// approximated by earliest start rather than earliest end.
				better = bestNode == "" || ready < bestStart
			}
			if better {
				bestNode, bestEnd, bestStart = n.Name, end, ready
				bestFPGA, bestBytes, bestTransfers = onFPGA, moved, transfers
			}
		}
		if bestNode == "" {
			return nil, fmt.Errorf("runtime: no alive node can run task %q", name)
		}
		sched.Assignments = append(sched.Assignments, Assignment{
			Task: name, Node: bestNode, Start: bestStart, End: bestEnd, OnFPGA: bestFPGA,
		})
		nodeFree[bestNode] = bestEnd
		taskDone[name] = bestEnd
		taskNode[name] = bestNode
		sched.Transfers += bestTransfers
		sched.MovedBytes += bestBytes
		if bestEnd > sched.Makespan {
			sched.Makespan = bestEnd
		}
	}
	return sched, nil
}

// taskOrder returns tasks in scheduling priority order: HEFT uses upward
// rank (critical path to exit), FIFO uses submission order. Both respect
// dependencies.
func (s *Scheduler) taskOrder(w *Workflow) ([]string, error) {
	// Topological check (submission order already guarantees acyclicity
	// because deps must pre-exist, but verify defensively).
	indeg := make(map[string]int)
	children := make(map[string][]string)
	for _, t := range w.specs {
		indeg[t.Name] = len(t.Deps)
		for _, d := range t.Deps {
			children[d] = append(children[d], t.Name)
		}
	}
	names := w.Tasks()
	if s.Policy == PolicyFIFO {
		return names, nil
	}

	// Upward rank with a representative node cost.
	ref := s.Cluster.Nodes[0]
	rank := make(map[string]float64)
	var compute func(name string) float64
	compute = func(name string) float64 {
		if r, ok := rank[name]; ok {
			return r
		}
		t := w.tasks[name]
		cost, _ := s.taskCost(t, ref)
		best := 0.0
		for _, c := range children[name] {
			if r := compute(c); r > best {
				best = r
			}
		}
		rank[name] = cost + best
		return rank[name]
	}
	for _, name := range names {
		compute(name)
	}

	// Priority order: higher rank first, but never before dependencies.
	sort.SliceStable(names, func(i, j int) bool { return rank[names[i]] > rank[names[j]] })
	var out []string
	done := make(map[string]bool)
	remaining := names
	for len(remaining) > 0 {
		progressed := false
		var next []string
		for _, name := range remaining {
			readyNow := true
			for _, d := range w.tasks[name].Deps {
				if !done[d] {
					readyNow = false
					break
				}
			}
			if readyNow {
				out = append(out, name)
				done[name] = true
				progressed = true
			} else {
				next = append(next, name)
			}
		}
		if !progressed {
			return nil, fmt.Errorf("runtime: dependency cycle detected")
		}
		remaining = next
	}
	return out, nil
}

// PlanWithRecovery plans the workflow, then replays the injected node
// failures: any task that would finish after its node's failure time is
// rescheduled onto the surviving nodes (its restart is recorded). Completed
// outputs survive failures (the runtime checkpoints task outputs to the
// shared data layer on completion).
func (s *Scheduler) PlanWithRecovery(w *Workflow) (*Schedule, error) {
	if len(s.Failures) == 0 {
		return s.Plan(w)
	}
	// First pass without failures to find which tasks are hit.
	clean := *s
	clean.Failures = nil
	base, err := clean.Plan(w)
	if err != nil {
		return nil, err
	}
	failAt := make(map[string]float64)
	for _, f := range s.Failures {
		failAt[f.Node] = f.AtTime
	}
	hit := make(map[string]bool)
	for _, a := range base.Assignments {
		if t, failed := failAt[a.Node]; failed && a.End > t {
			hit[a.Task] = true
		}
	}
	if len(hit) == 0 {
		return base, nil
	}
	// Second pass with failures active plans the hit tasks (and everything
	// after them) away from dead nodes.
	re, err := s.Plan(w)
	if err != nil {
		return nil, err
	}
	for i := range re.Assignments {
		if hit[re.Assignments[i].Task] {
			re.Assignments[i].Restart = true
		}
	}
	return re, nil
}

// LoadImbalance returns the ratio busiest/least-busy node time in the
// schedule across nodes that received work (1.0 = perfectly balanced).
func (s *Schedule) LoadImbalance() float64 {
	busy := make(map[string]float64)
	for _, a := range s.Assignments {
		busy[a.Node] += a.End - a.Start
	}
	if len(busy) == 0 {
		return 1
	}
	min, max := -1.0, 0.0
	for _, b := range busy {
		if min < 0 || b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min <= 0 {
		return max
	}
	return max / min
}
