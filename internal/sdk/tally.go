package sdk

import "everest/internal/runtime"

// TenantStats aggregates one tenant's submissions.
type TenantStats struct {
	Submitted  int
	Completed  int
	Failed     int
	LastFinish float64 // modelled completion time of the tenant's last workflow

	// Adaptation activity across the tenant's completed workflows.
	Reschedules int            // placements invalidated and redone
	Fallbacks   int            // FPGA placements that executed on CPU
	Variants    map[string]int // completed tasks per selected variant
}

// Tally is the per-tenant account of a set of engine submissions.
type Tally struct {
	Submitted int
	Completed int
	Failed    int
	// Makespan is the modelled time at which the last completed workflow
	// finished — the engine-wide completion time of everything tallied.
	Makespan float64
	Tenants  map[string]TenantStats
}

// TallyOf folds engine futures into a Tally: each future is one
// submission of its tenant, completed if Wait returns its schedule and
// failed otherwise — including a future the engine has not served yet.
func TallyOf(futs []*runtime.Future) Tally {
	out := Tally{Submitted: len(futs), Tenants: make(map[string]TenantStats)}
	for _, fut := range futs {
		ts := out.Tenants[fut.Tenant]
		ts.Submitted++
		if sched, err := fut.Wait(); err != nil {
			out.Failed++
			ts.Failed++
		} else {
			out.Completed++
			ts.Completed++
			ts.LastFinish = max(ts.LastFinish, sched.Makespan)
			out.Makespan = max(out.Makespan, sched.Makespan)
			ts.Reschedules += sched.Adapt.Reschedules
			ts.Fallbacks += sched.Adapt.Fallbacks
			for v, n := range sched.Adapt.VariantCounts {
				if ts.Variants == nil {
					ts.Variants = make(map[string]int)
				}
				ts.Variants[v] += n
			}
		}
		out.Tenants[fut.Tenant] = ts
	}
	return out
}
