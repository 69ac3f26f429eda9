// Package autotuner implements the EVEREST dynamic autotuner (paper §VI-C),
// mARGOt (Gadioli et al., IEEE TC 2019), as the per-workflow variant tuner
// the adaptive serving engine embeds: one implementation-variant knob
// whose expected latencies track the live environment (experiment E7).
package autotuner

import "fmt"

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

// Tuner is the mARGOt instance the adaptive engine embeds per workflow:
// one "impl" knob whose operating points carry expected execution latency,
// ranked minimize-time. The engine resolves each variant it knows to its
// point once per workflow (Index), consults Drift on every placement and
// feeds Observe from completions (an EWMA with alpha 0.5), so
// variant selection tracks the live environment instead of the static
// plan. Hot-plug events need no hook here: a device's attachment is priced
// per placement, and a tuner's knowledge lives only while its workflow is
// served (the engine reseeds a recycled record's tuner with Reset). A
// Tuner is not safe for concurrent use: each belongs to one workflow, and
// its engine touches it only under the serve lock.
//
// The knowledge base is one slice of points in seed order, addressed by
// position, so a lookup allocates nothing.
type Tuner struct {
	points []point
}

// point is one variant's knowledge.
type point struct {
	name     string
	seed     float64 // design-time expected ms
	expected float64 // live expected ms (EWMA)
}

// Index resolves a variant name to the position of its point, which Drift
// and Observe take, with a linear scan: tuners hold a handful of variants
// (cpu1/cpu16/fpga), where scanning a short slice beats a map on both
// lookup time and construction allocations — Reset runs once per submitted
// workflow on the engine's hot path. A position holds until the next Reset.
func (t *Tuner) Index(name string) (int, bool) {
	for i := range t.points {
		if t.points[i].name == name {
			return i, true
		}
	}
	return -1, false
}

// NewTuner builds a variant tuner from design-time knowledge: Reset on a
// fresh tuner. It does not retain variants.
func NewTuner(variants []Variant) (*Tuner, error) {
	t := new(Tuner)
	if err := t.Reset(variants); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset reseeds the tuner from design-time knowledge, dropping every
// observation, so a recycled tuner is indistinguishable from a new one. It
// reuses the tuner's storage and allocates only when variants outnumber
// its capacity. It does not retain variants. A malformed set is refused
// with the error NewTuner gives, and leaves no variant to Index.
func (t *Tuner) Reset(variants []Variant) error {
	if cap(t.points) < len(variants) {
		t.points = make([]point, 0, len(variants))
	}
	t.points = t.points[:0]
	if len(variants) == 0 {
		return fmt.Errorf("autotuner: tuner needs at least one variant")
	}
	for _, v := range variants {
		if err := t.seed(v); err != nil {
			t.points = t.points[:0]
			return err
		}
	}
	return nil
}

// seed checks one variant and appends its point.
func (t *Tuner) seed(v Variant) error {
	if v.Name == "" || v.ExpectedMs <= 0 {
		return fmt.Errorf("autotuner: variant needs a name and positive expected latency")
	}
	if v.BoundMs < 0 || (v.BoundMs > 0 && v.BoundMs < v.ExpectedMs) {
		return fmt.Errorf("autotuner: variant %q bound %.4gms must be absent (0) or >= expected %.4gms",
			v.Name, v.BoundMs, v.ExpectedMs)
	}
	if _, dup := t.Index(v.Name); dup {
		return fmt.Errorf("autotuner: duplicate variant %q", v.Name)
	}
	t.points = append(t.points, point{name: v.Name, seed: v.ExpectedMs, expected: v.ExpectedMs})
	return nil
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

// Drift returns expected/seed for the variant at position i (Index): the
// learned multiplicative deviation of the live environment from the
// design-time model (1 = on model). Schedulers scale their per-task
// nominal estimates by it.
func (t *Tuner) Drift(i int) float64 {
	p := &t.points[i]
	if p.seed <= 0 || p.expected <= 0 {
		return 1
	}
	return p.expected / p.seed
}

// Observe feeds one measured latency (ms) for the variant at position i
// (Index) back into the knowledge base: the expected latency moves halfway
// to the observation.
func (t *Tuner) Observe(i int, ms float64) {
	p := &t.points[i]
	p.expected = 0.5*p.expected + 0.5*ms
}
