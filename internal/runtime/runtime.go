// Package runtime implements the EVEREST resource manager (paper §VI-A):
// a Dask-like task-graph API over the simulated heterogeneous cluster, and
// one cost-aware engine that (1) respects dependencies and resource
// requests, (2) load-balances, (3) inserts inter-node data transfers, and
// (4) monitors the cluster and reschedules tasks when a node fails.
//
// Engine is an event loop over per-node work queues, run on the
// submitter's goroutine, that multiplexes many workflows from many tenants
// onto the same cluster, with batched inter-node transfers, round-robin
// tenant fairness, and reactive rescheduling when a node fails mid-run.
// ServeAlone is the same engine serving one workflow on an otherwise idle
// cluster, so single-workflow schedules and the back-to-back baseline are
// priced by the same model as multiplexed serving.
//
// The public API mirrors the paper's description: applications submit tasks
// with minimal modification ("Dask-like API ... extended with
// EVEREST-specific features, mainly to specify the resource requests and the
// possibility of kernel fine-tuning").
package runtime

import (
	"fmt"

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
	// downstream consumer (engine transfers, cost models, bounds)
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
	// PolicyHEFT places each ready task on the node with the earliest
	// modelled finish time, transfer costs included. Tasks are placed in
	// the order they become ready (no upward-rank ordering).
	PolicyHEFT Policy = iota
	// PolicyFIFO places each ready task on the node where it can start
	// earliest, ignoring how long it runs there (the E6 baseline).
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

// Schedule is the result of serving one workflow.
type Schedule struct {
	Assignments []Assignment
	Makespan    float64
	Transfers   int   // inter-node dependency transfers
	MovedBytes  int64 // total bytes moved between nodes
	Policy      Policy
	Adapt       AdaptStats // adaptation and recovery activity
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

// costOn models task t's execution time on node n with the design-time
// model: nominal CPU speed, and FPGA offload assumed reachable whenever the
// bitstream is programmed (attachment faults are invisible to it). Used by
// the static engine's placement estimates; live execution costs come from
// costLive (adaptive.go).
func costOn(t *TaskSpec, n *platform.Node) (cost float64, onFPGA bool, devIdx int) {
	if c, idx, ok := fpgaCostOn(t, n, designTime); ok {
		return c, true, idx
	}
	return n.RunCPU(t.Flops, t.TotalBytes(), t.Cores), false, -1
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
