package runtime

import (
	"fmt"

	"everest/internal/netsim"
	"everest/internal/platform"
)

// This file derives the proven service-time bound guaranteed-class
// admission (internal/fleet) checks against a deadline: a modelled worst
// case for serving one workflow alone on a cluster, composed purely from
// schedule-derived and platform-model quantities — no observed latencies.
//
// Soundness rests on how the engine actually prices and runs work:
//
//   - Software executions (cpu1/cpu16/as-submitted fallback) cost
//     RunCPU(flops, bytes, cores) x SlowdownAt(start). CPUModel.TimeSeconds
//     is non-increasing in cores, so one core on the slowest alive node is
//     the worst case, and the load factor is capped by the fleet's
//     slowdown cap (fleet.New validates the scripted fault events).
//   - FPGA executions cost platform.Execute on the programmed device with
//     the engine's fixed Batches:4 workload and take no load multiplier;
//     platform.ExecuteBound dominates Execute on every device, so the max
//     over devices that can host the bitstream bounds any placement.
//   - Placement estimates never exceed these either: the engine prices
//     software candidates with the monitor's slowdown estimate (an EWMA of
//     observed factors, hence <= the cap) and picks the end-minimizing
//     variant, so tuner drift on the fpga estimate cannot push the chosen
//     end past the cpu1 candidate on the same node.
//   - Dependency transfers are batched per source node; the batched cost of
//     a group never exceeds the sum of its single-dependency transfers
//     (the link latency is paid once instead of per dependency), so
//     pricing every dependency as its own worst-case transfer is an upper
//     bound on whatever grouping the placement produces.
//
// Summing the per-task worst cases over the whole DAG is then a bound on
// the serve-alone makespan delta: the engine is work-conserving, and since
// the fleet serves each workflow to completion under its lock, at most one
// workflow occupies the engine at a time, so every stall a task can suffer
// (node clocks, device claims, transfers) traces back to another task of
// the same workflow.

// BoundOptions parameterizes ServiceBound.
type BoundOptions struct {
	// SlowdownCap is the contractual ceiling on any node's CPU load factor.
	// Values below 1 are treated as 1 (no slowdown).
	SlowdownCap float64
	// Net, when set, prices inter-node dependency transfers (the engine's
	// EngineConfig.Net semantics); nil uses the cluster fabric.
	Net *netsim.Stack
}

// ServiceBound returns the modelled worst-case makespan of serving w alone
// on cluster c: the sum over tasks of the worst per-task execution cost
// (slowest single-core software path under the slowdown cap, or the
// schedule's WCET on the slowest device that can host the task's
// bitstream, whichever is larger) plus the worst-case cost of shipping
// each dependency across the fabric. It errors when the cluster has no
// alive node to run a task.
func ServiceBound(w *Workflow, c *platform.Cluster, reg *platform.Registry, opt BoundOptions) (float64, error) {
	if w == nil {
		return 0, fmt.Errorf("runtime: nil workflow")
	}
	slowCap := opt.SlowdownCap
	if slowCap < 1 {
		slowCap = 1
	}
	total := 0.0
	for i := range w.specs {
		t := &w.specs[i]
		exec, err := taskBound(t, c, reg, slowCap)
		if err != nil {
			return 0, err
		}
		xfer := 0.0
		for _, d := range w.depList[w.depOff[i]:w.depOff[i+1]] {
			out := w.specs[d].OutputBytes
			if out <= 0 {
				continue
			}
			if opt.Net != nil {
				xfer += opt.Net.SendSeconds(out)
			} else {
				xfer += c.Network.TransferSeconds(out)
			}
		}
		total += exec + xfer
	}
	return total, nil
}

// taskBound prices the worst-case execution of one task: every cost path
// the engine can take (software on any core count under any capped load,
// or the kernel's WCET on any device the bitstream fits) is dominated.
func taskBound(t *TaskSpec, c *platform.Cluster, reg *platform.Registry, slowCap float64) (float64, error) {
	bytes := t.TotalBytes()
	worst := -1.0
	for _, n := range c.Nodes {
		if _, failed := n.FailedAt(); failed {
			continue
		}
		if v := n.RunCPU(t.Flops, bytes, 1) * slowCap; v > worst {
			worst = v
		}
	}
	if worst < 0 {
		return 0, fmt.Errorf("runtime: no alive node can bound task %q", t.Name)
	}
	if t.NeedsFPGA && t.BitstreamID != "" {
		if ent, err := reg.Entry(t.BitstreamID); err == nil {
			wl := platform.Workload{BytesIn: t.InputBytes, BytesOut: t.OutputBytes, Batches: 4}
			for _, n := range c.Nodes {
				for _, d := range n.Devices {
					tl, ok := ent.BoundOn(d, wl)
					if !ok {
						continue // does not fit on this device
					}
					if tl.Total > worst {
						worst = tl.Total
					}
				}
			}
		}
	}
	return worst, nil
}
