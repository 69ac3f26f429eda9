package hls

import (
	"fmt"
	"math"
)

// Schedule synthesizes a kernel under the given directives with the given
// backend and returns the latency/resource report.
//
// Model (classic HLS analysis):
//
//   - The per-iteration datapath latency assumes balanced-tree chaining:
//     a product of m factors takes ceil(log2 m) multiplier levels, the sums
//     one adder tree, plus serial divides/specials and one load/store level.
//   - Unpipelined loops pay the full iteration latency every trip.
//   - Pipelined loops achieve latency (trips-1)*II + depth, where II is
//     bounded below by (a) memory port pressure ceil(accesses/ports),
//     (b) the reduction recurrence (accumulator feedback = add latency,
//     1 for single-cycle formats), and (c) the requested TargetII.
//   - Unrolling by U replicates the datapath U times (resources scale) and
//     divides the trip count; memory pressure scales with U as well, so
//     unrolling beyond the port budget stops helping — the motivation for
//     Olympus bus lanes (experiment E3).
func Schedule(k Kernel, d Directives, b Backend) (Report, error) {
	if len(k.Nest.TripCounts) == 0 {
		return Report{}, fmt.Errorf("hls: kernel %q has an empty loop nest", k.Name)
	}
	for _, t := range k.Nest.TripCounts {
		if t <= 0 {
			return Report{}, fmt.Errorf("hls: kernel %q has non-positive trip count %d", k.Name, t)
		}
	}
	if !b.SupportsFormat(k.Format) {
		return Report{}, fmt.Errorf("hls: backend %q does not support format %s", b.Name(), k.Format.Name())
	}
	unroll := d.Unroll
	if unroll < 1 {
		unroll = 1
	}
	inner := k.Nest.TripCounts[len(k.Nest.TripCounts)-1]
	if unroll > inner {
		unroll = inner
	}
	memPorts := d.MemPorts
	if memPorts <= 0 {
		memPorts = 2
	}

	mix := k.Nest.Body
	depth := iterationDepth(mix, k, b)

	// Effective per-iteration work after unrolling: U iterations of the
	// innermost loop issue at once, so the innermost trip count shrinks by U
	// (ceil for the remainder) on EVERY outer iteration — the remainder
	// cannot amortize across the nest, since each outer iteration restarts
	// the innermost loop and pays its own partial group.
	trips := k.Nest.Trips()
	outer := trips / int64(inner)
	effInner := int64(ceilDiv(inner, unroll))
	effTrips := outer * effInner

	accesses := (mix.Loads + mix.Stores + 2*mix.Gathers) * unroll
	memII := ceilDiv(accesses, memPorts)

	var latency, wcet int64
	ii := 0
	if d.PipelineEnabled {
		recII := 1
		if k.Nest.Reduction {
			// The accumulator feedback path bounds II at the add latency.
			recII = b.Cost(OpAdd, k.Format).Latency
		}
		ii = maxInt(1, maxInt(memII, recII))
		if d.TargetII > ii {
			ii = d.TargetII
		}
		latency = (effTrips-1)*int64(ii) + int64(depth)
		// Worst case: the pipeline cannot overlap across outer-loop
		// boundaries (each outer iteration drains before the next fills) and
		// every boundary costs one control cycle. When II exceeds depth+1
		// the flush model would undercut the steady-state expression, so the
		// bound is floored at the achieved latency.
		wcet = outer*((effInner-1)*int64(ii)+int64(depth)) + (outer - 1)
		if wcet < latency {
			wcet = latency
		}
	} else {
		// Sequential: every iteration pays the full depth plus one cycle of
		// loop control; there is no overlap to lose, so the schedule is its
		// own worst case.
		latency = effTrips * int64(depth+1)
		wcet = latency
	}

	res := datapathResources(mix, k, b).Scale(unroll)
	// Control and buffering overhead.
	res = res.Add(Resources{LUT: 300 + 50*len(k.Nest.TripCounts), FF: 400})
	res = res.Add(Resources{BRAM: bramBlocks(k.BufferBytes)})

	return Report{
		Kernel:       k.Name,
		Backend:      b.Name(),
		LatencyCycle: latency,
		WCETCycle:    wcet,
		II:           ii,
		IterLatency:  depth,
		Resources:    res,
		ClockMHz:     b.ClockMHz(k.Format),
		Directives:   d,
	}, nil
}

// iterationDepth estimates the pipeline depth of one iteration.
func iterationDepth(mix OpMix, k Kernel, b Backend) int {
	addLat := b.Cost(OpAdd, k.Format).Latency
	mulLat := b.Cost(OpMul, k.Format).Latency
	divLat := b.Cost(OpDiv, k.Format).Latency
	cmpLat := b.Cost(OpCmp, k.Format).Latency
	spLat := b.Cost(OpSpecial, k.Format).Latency
	ldLat := b.Cost(OpLoad, k.Format).Latency

	depth := ldLat // operand fetch level
	if mix.Gathers > 0 {
		depth += ldLat // dependent address adds a serial level
	}
	if mix.Muls > 0 {
		depth += treeLevels(mix.Muls) * mulLat
	}
	if mix.Adds > 0 {
		depth += treeLevels(mix.Adds) * addLat
	}
	depth += mix.Divs * divLat
	if mix.Compares > 0 {
		depth += cmpLat
	}
	depth += mix.Special * spLat
	if mix.Stores > 0 {
		depth += ldLat
	}
	if depth < 1 {
		depth = 1
	}
	return depth
}

// treeLevels returns ceil(log2(n+1)): the depth of a balanced operator tree
// combining n operators.
func treeLevels(n int) int {
	if n <= 0 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n + 1))))
}

// datapathResources sums operator resources for one datapath copy.
func datapathResources(mix OpMix, k Kernel, b Backend) Resources {
	var r Resources
	addRes := func(op OpClass, n int) {
		if n <= 0 {
			return
		}
		r = r.Add(b.Cost(op, k.Format).Res.Scale(n))
	}
	addRes(OpAdd, mix.Adds)
	addRes(OpMul, mix.Muls)
	addRes(OpDiv, mix.Divs)
	addRes(OpCmp, mix.Compares)
	addRes(OpSpecial, mix.Special)
	addRes(OpLoad, mix.Loads+mix.Gathers)
	addRes(OpStore, mix.Stores)
	return r
}

// bramBlocks converts a buffer footprint to BRAM18 blocks (2 KiB each).
func bramBlocks(bytes int64) int {
	if bytes <= 0 {
		return 0
	}
	return int((bytes + 2047) / 2048)
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
