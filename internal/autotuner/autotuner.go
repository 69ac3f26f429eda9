// Package autotuner implements the EVEREST dynamic autotuner (paper §VI-C):
// mARGOt (Gadioli et al., IEEE TC 2019), an application-level library that
// monitors execution and selects the best configuration for the current
// execution environment.
//
// Concepts follow the paper exactly:
//
//   - Knobs are variables the library controls (application parameters or
//     code variants, e.g. "impl" ∈ {cpu1, cpu16, fpga});
//   - Metrics are observed properties (execution time, energy, error);
//   - Operating points pair a knob configuration with expected metrics;
//   - Goals constrain metrics ("exec_time <= 100ms"), a Rank orders the
//     feasible points ("minimize energy");
//   - Monitors feed runtime observations back, so the expected metrics
//     track the actual environment (resource availability, data features):
//     when the FPGA is unplugged and the fpga variant degrades, selection
//     adapts (experiment E7).
package autotuner

import (
	"fmt"
	"sort"
	"strings"
)

// Metric names an observable property.
type Metric string

// Common metrics.
const (
	MetricTimeMs  Metric = "exec_time_ms"
	MetricEnergyJ Metric = "energy_j"
)

// Config is a knob assignment, e.g. {"impl": "fpga", "samples": "10000"}.
type Config map[string]string

// Key returns a canonical string for map indexing.
func (c Config) Key() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + c[k]
	}
	return strings.Join(parts, ",")
}

// Knob is one controllable variable with its admissible values.
type Knob struct {
	Name   string
	Values []string
}

// OperatingPoint pairs a configuration with its expected metric values.
type OperatingPoint struct {
	Config  Config
	Metrics map[Metric]float64
}

// Goal is one upper bound on a metric: metric <= Value.
type Goal struct {
	Metric Metric
	Value  float64
}

// Satisfied reports whether v meets the goal.
func (g Goal) Satisfied(v float64) bool { return v <= g.Value }

// Rank is the optimization objective over feasible points.
type Rank struct {
	Metric   Metric
	Minimize bool
}

// Autotuner is one application's mARGOt instance.
type Autotuner struct {
	knobs  []Knob
	points map[string]*OperatingPoint
	order  []string // deterministic iteration order
	goals  []Goal
	rank   Rank
	// alpha is the EWMA factor for online metric updates.
	alpha float64
	// observations counts per-config feedback events.
	observations map[string]int
}

// New creates an autotuner with the design-time knowledge (knobs and
// operating points), goals, and rank.
func New(knobs []Knob, points []OperatingPoint, goals []Goal, rank Rank) (*Autotuner, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("autotuner: need at least one operating point")
	}
	a := &Autotuner{
		knobs:        knobs,
		points:       make(map[string]*OperatingPoint, len(points)),
		goals:        goals,
		rank:         rank,
		alpha:        0.5,
		observations: make(map[string]int),
	}
	for i := range points {
		p := points[i]
		if err := a.validateConfig(p.Config); err != nil {
			return nil, err
		}
		key := p.Config.Key()
		if _, dup := a.points[key]; dup {
			return nil, fmt.Errorf("autotuner: duplicate operating point %q", key)
		}
		cp := OperatingPoint{Config: p.Config, Metrics: make(map[Metric]float64, len(p.Metrics))}
		for m, v := range p.Metrics {
			cp.Metrics[m] = v
		}
		a.points[key] = &cp
		a.order = append(a.order, key)
	}
	return a, nil
}

func (a *Autotuner) validateConfig(c Config) error {
	for _, k := range a.knobs {
		v, ok := c[k.Name]
		if !ok {
			return fmt.Errorf("autotuner: operating point missing knob %q", k.Name)
		}
		valid := false
		for _, allowed := range k.Values {
			if allowed == v {
				valid = true
				break
			}
		}
		if !valid {
			return fmt.Errorf("autotuner: knob %q has no value %q", k.Name, v)
		}
	}
	return nil
}

// Select returns the best operating point: among the points satisfying all
// goals, the one optimizing the rank metric. If no point is feasible, it
// returns the point closest to feasibility (smallest total relative goal
// violation), which is mARGOt's graceful-degradation behaviour.
func (a *Autotuner) Select() OperatingPoint {
	var bestFeasible *OperatingPoint
	var bestInfeasible *OperatingPoint
	bestViolation := 0.0

	for _, key := range a.order {
		p := a.points[key]
		violation := 0.0
		for _, g := range a.goals {
			v, ok := p.Metrics[g.Metric]
			if !ok {
				violation += 1 // unknown metric counts as violated
				continue
			}
			if !g.Satisfied(v) {
				denom := g.Value
				if denom == 0 {
					denom = 1
				}
				violation += abs(v-g.Value) / abs(denom)
			}
		}
		if violation == 0 {
			if bestFeasible == nil || a.better(p, bestFeasible) {
				bestFeasible = p
			}
		} else if bestInfeasible == nil || violation < bestViolation {
			bestInfeasible = p
			bestViolation = violation
		}
	}
	if bestFeasible != nil {
		return snapshot(bestFeasible)
	}
	return snapshot(bestInfeasible)
}

func (a *Autotuner) better(p, q *OperatingPoint) bool {
	pv, pok := p.Metrics[a.rank.Metric]
	qv, qok := q.Metrics[a.rank.Metric]
	if !pok || !qok {
		return pok && !qok
	}
	if a.rank.Minimize {
		return pv < qv
	}
	return pv > qv
}

func snapshot(p *OperatingPoint) OperatingPoint {
	out := OperatingPoint{Config: p.Config, Metrics: make(map[Metric]float64, len(p.Metrics))}
	for m, v := range p.Metrics {
		out.Metrics[m] = v
	}
	return out
}

// Observe feeds a runtime measurement for a configuration back into the
// knowledge base (the monitor loop). Expected metrics track observations by
// exponential moving average.
func (a *Autotuner) Observe(c Config, m Metric, value float64) error {
	key := c.Key()
	p, ok := a.points[key]
	if !ok {
		return fmt.Errorf("autotuner: observation for unknown operating point %q", key)
	}
	old, had := p.Metrics[m]
	if !had {
		p.Metrics[m] = value
	} else {
		p.Metrics[m] = (1-a.alpha)*old + a.alpha*value
	}
	a.observations[key]++
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
