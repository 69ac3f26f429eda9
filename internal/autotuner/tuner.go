package autotuner

import "fmt"

// KnobImpl is the knob name a variant Tuner controls: the implementation
// choice of one workload ("impl" ∈ {cpu1, cpu16, fpga} in the paper's E7
// scenario).
const KnobImpl = "impl"

// Variant seeds one implementation choice with its design-time expected
// latency.
type Variant struct {
	Name       string
	ExpectedMs float64
	// BoundMs, when positive, is the variant's proven worst-case latency
	// (schedule-derived WCET priced through the device model; summed across
	// DAG stages by variants.MergeVariants). 0 means no proven bound. The
	// tuner tracks ExpectedMs from observations but never moves BoundMs —
	// bounds are compile-time facts, not estimates.
	BoundMs float64
}

// Tuner is the mARGOt instance the adaptive engine embeds per workload:
// one "impl" knob whose operating points carry expected execution latency,
// ranked minimize-time. The engine consults Available/Drift on every
// dispatch and feeds Observe from completions, so variant selection tracks
// the live environment instead of the static plan. Hot-plug events need no
// hook here: a device's attachment is priced per placement, and a tuner
// lives only while its workflow is served. A Tuner is not safe for
// concurrent use: each belongs to one workflow, and its engine touches it
// only under the serve lock.
//
// The knowledge base is one slice of points in seed order rather than a
// general Autotuner: the engine calls Best/Expected on every placement of
// every task, and the general operating-point snapshot (one map allocation
// per point per call) dominated dispatch profiles. Semantics are identical
// to an Autotuner with a single KnobImpl knob and an EWMA alpha of 0.5.
type Tuner struct {
	points []point
}

// point is one variant's knowledge.
type point struct {
	name     string
	seed     float64 // design-time expected ms
	expected float64 // live expected ms (EWMA)
	obs      int     // observation count
}

// index resolves a variant name with a linear scan: tuners hold a handful
// of variants (cpu1/cpu16/fpga), where scanning a short slice beats a map
// on both lookup time and construction allocations — NewTuner runs once
// per submitted workflow on the engine's hot path.
func (t *Tuner) index(name string) (int, bool) {
	for i := range t.points {
		if t.points[i].name == name {
			return i, true
		}
	}
	return -1, false
}

// NewTuner builds a variant tuner from design-time knowledge. It does not
// retain variants.
func NewTuner(variants []Variant) (*Tuner, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("autotuner: tuner needs at least one variant")
	}
	t := &Tuner{points: make([]point, 0, len(variants))}
	for _, v := range variants {
		if v.Name == "" || v.ExpectedMs <= 0 {
			return nil, fmt.Errorf("autotuner: variant needs a name and positive expected latency")
		}
		if v.BoundMs < 0 || (v.BoundMs > 0 && v.BoundMs < v.ExpectedMs) {
			return nil, fmt.Errorf("autotuner: variant %q bound %.4gms must be absent (0) or >= expected %.4gms",
				v.Name, v.BoundMs, v.ExpectedMs)
		}
		if _, dup := t.index(v.Name); dup {
			return nil, fmt.Errorf("autotuner: duplicate variant %q", v.Name)
		}
		t.points = append(t.points, point{name: v.Name, seed: v.ExpectedMs, expected: v.ExpectedMs})
	}
	return t, nil
}

// Variants returns the variant names in seed order.
func (t *Tuner) Variants() []string {
	names := make([]string, len(t.points))
	for i := range t.points {
		names[i] = t.points[i].name
	}
	return names
}

// Best returns the variant with the lowest expected latency, first-seeded
// winning ties.
func (t *Tuner) Best() string {
	best := 0
	for i := range t.points {
		if t.points[i].expected < t.points[best].expected {
			best = i
		}
	}
	return t.points[best].name
}

// Expected returns the current expected latency of a variant in ms (0 for
// unknown variants).
func (t *Tuner) Expected(name string) float64 {
	if i, ok := t.index(name); ok {
		return t.points[i].expected
	}
	return 0
}

// Drift returns expected/seed for a variant: the learned multiplicative
// deviation of the live environment from the design-time model (1 = on
// model). Schedulers scale their per-task nominal estimates by it.
func (t *Tuner) Drift(name string) float64 {
	i, ok := t.index(name)
	if !ok || t.points[i].seed <= 0 || t.points[i].expected <= 0 {
		return 1
	}
	return t.points[i].expected / t.points[i].seed
}

// Available reports whether the tuner knows a variant, and so may select
// it.
func (t *Tuner) Available(name string) bool {
	_, ok := t.index(name)
	return ok
}

// Observe feeds one measured latency (ms) for a variant back into the
// knowledge base with the same EWMA the general autotuner applies.
func (t *Tuner) Observe(name string, ms float64) {
	if i, ok := t.index(name); ok {
		p := &t.points[i]
		p.expected = 0.5*p.expected + 0.5*ms
		p.obs++
	}
}

// Observations returns how many measurements a variant has received.
func (t *Tuner) Observations(name string) int {
	if i, ok := t.index(name); ok {
		return t.points[i].obs
	}
	return 0
}
