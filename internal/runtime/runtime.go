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
	"slices"

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

// Workflow is a DAG of tasks (the Dask graph), resolved as it is built:
// Submit appends the spec, its dependency indices and its data plane
// (interned dataset partitions, bitstream needs), so engines, fleets and
// regions serving the workflow share all of it read-only instead of
// re-resolving names per submission.
type Workflow struct {
	index map[string]int32 // task name -> submission index
	specs []TaskSpec       // submission order (index = task id)
	// Dependency CSR: the deps of task i are depList[depOff[i]:depOff[i+1]].
	depOff  []int32
	depList []int32

	// Data plane, resolved by Submit. Each slice only grows past what an
	// earlier reader saw, except that a read later written is removed on
	// a copy.
	reads   []dataset.Part // external reads: read by some task, written by none
	outputs []Output       // every task's Writes, in submission order
	needs   []dataset.Part // distinct bitstreams the FPGA tasks request

	// variants, when set, are compiler-derived operating points that seed
	// this workflow's variant tuner in adaptive mode (SetVariants).
	variants []autotuner.Variant
}

// NewWorkflow returns an empty workflow.
func NewWorkflow() *Workflow {
	return &Workflow{index: make(map[string]int32), depOff: []int32{0}}
}

// Submit adds a task; dependencies must already be submitted.
func (w *Workflow) Submit(spec TaskSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("runtime: task needs a name")
	}
	if _, dup := w.index[spec.Name]; dup {
		return fmt.Errorf("runtime: duplicate task %q", spec.Name)
	}
	for _, d := range spec.Deps {
		if _, ok := w.index[d]; !ok {
			return fmt.Errorf("runtime: task %q depends on unknown task %q", spec.Name, d)
		}
	}
	// The workflow keeps its own copies: a caller reusing its slices
	// must not change what the workflow prices or serves.
	spec.Deps = slices.Clone(spec.Deps)
	spec.Reads = slices.Clone(spec.Reads)
	spec.Writes = slices.Clone(spec.Writes)
	// Dataset path: derive the modelled byte fields from the refs so every
	// downstream consumer (engine transfers, cost models, bounds)
	// sees the same numbers whether bytes were declared or named.
	spec.InputBytes = spec.ReadBytes()
	spec.OutputBytes = spec.WriteBytes()
	for _, d := range spec.Deps {
		w.depList = append(w.depList, w.index[d])
	}
	w.depOff = append(w.depOff, int32(len(w.depList)))
	w.index[spec.Name] = int32(len(w.specs))
	w.specs = append(w.specs, spec)
	w.resolve(&spec)
	return nil
}

// Output is one partition a task writes, resolved at Submit.
type Output struct {
	Task string // the producing task
	dataset.Part
}

// resolve folds one submitted task into the data plane. Its writes join
// the outputs and leave the external reads; its reads join them once,
// in first-use order, unless some task already wrote them; its bitstream
// joins the needs. This is the one place a workflow interns partitions.
func (w *Workflow) resolve(t *TaskSpec) {
	for _, r := range t.Writes {
		p := dataset.Intern(r)
		w.outputs = append(w.outputs, Output{Task: t.Name, Part: p})
		if i := slices.IndexFunc(w.reads, func(q dataset.Part) bool { return q.ID == p.ID }); i >= 0 {
			w.reads = slices.Delete(slices.Clone(w.reads), i, i+1)
		}
	}
	for _, r := range t.Reads {
		p := dataset.Intern(r)
		if !slices.ContainsFunc(w.reads, func(q dataset.Part) bool { return q.ID == p.ID }) &&
			!slices.ContainsFunc(w.outputs, func(o Output) bool { return o.ID == p.ID }) {
			w.reads = append(w.reads, p)
		}
	}
	w.needs = appendNeed(w.needs, t)
}

// appendNeed adds t's bitstream to needs unless t runs in software or
// the bitstream is already listed. A need is interned like a partition
// (Ref.Name is the bitstream ID, its image size is the serving tier's to
// price), so the stores that ship images key it by ID too.
func appendNeed(needs []dataset.Part, t *TaskSpec) []dataset.Part {
	if !t.NeedsFPGA || t.BitstreamID == "" ||
		slices.ContainsFunc(needs, func(p dataset.Part) bool { return p.Ref.Name == t.BitstreamID }) {
		return needs
	}
	return append(needs, dataset.Intern(dataset.Ref{Name: t.BitstreamID}))
}

// Reads returns the workflow's external dataset reads: partitions read by
// some task but written by none (intra-workflow intermediates are priced
// by the engine's transfer model), deduplicated in first-use order. The
// slice is shared and must not be modified.
func (w *Workflow) Reads() []dataset.Part { return w.reads[:len(w.reads):len(w.reads)] }

// Outputs returns every task's written partitions in submission order,
// what a serving tier publishes when the workflow completes. The slice
// is shared and must not be modified.
func (w *Workflow) Outputs() []Output { return w.outputs[:len(w.outputs):len(w.outputs)] }

// Needs returns the distinct bitstreams the workflow's FPGA tasks
// request, in first-use order, each as an interned part whose Ref.Name
// is the bitstream ID. The slice is shared and must not be modified.
func (w *Workflow) Needs() []dataset.Part { return w.needs[:len(w.needs):len(w.needs)] }

// Tasks returns task names in submission order.
func (w *Workflow) Tasks() []string {
	names := make([]string, len(w.specs))
	for i := range w.specs {
		names[i] = w.specs[i].Name
	}
	return names
}

// Get returns a copy of a task spec. Changing the copy changes nothing the
// workflow serves.
func (w *Workflow) Get(name string) (TaskSpec, bool) {
	i, ok := w.index[name]
	if !ok {
		return TaskSpec{}, false
	}
	spec := w.specs[i]
	spec.Deps = slices.Clone(spec.Deps)
	spec.Reads = slices.Clone(spec.Reads)
	spec.Writes = slices.Clone(spec.Writes)
	return spec, true
}

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.specs) }

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
	Restart bool    // true if this run replaces one lost to a node failure
	Variant Variant // implementation variant the adaptive engine selected
}

// Schedule is the result of serving one workflow.
type Schedule struct {
	Assignments []Assignment
	Makespan    float64
	Transfers   int        // inter-node dependency transfers
	MovedBytes  int64      // total bytes moved between nodes
	Adapt       AdaptStats // adaptation and recovery activity
}

// AdaptStats summarizes one workflow's adaptation activity under the
// concurrent engine: how many placements had to be redone after a node
// failure, and how many FPGA placements executed in software because the
// device was gone by the time they ran (static runs under faults pay
// these too). The variants its tasks ran as are on the assignments
// (Schedule.VariantCounts).
type AdaptStats struct {
	Reschedules int // placements lost to a node failure and redone
	Fallbacks   int // FPGA placements that executed on CPU
}

// VariantCounts returns the completed tasks per selected implementation
// variant (adaptive mode only — static runs never select variants, and
// get an empty map).
func (s *Schedule) VariantCounts() map[string]int {
	counts := make(map[string]int)
	for _, a := range s.Assignments {
		if a.Variant != VariantAsSubmitted {
			counts[a.Variant.String()]++
		}
	}
	return counts
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
