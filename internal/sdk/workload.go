package sdk

import (
	"fmt"

	"everest/internal/runtime"
)

// SyntheticWorkflow returns a deterministic workflow for throughput
// experiments: index i cycles through a three-stage pipeline, a fork-join,
// and a diamond, with task weights varied by i so a stream of submissions
// resembles the mixed traffic of the paper's use cases rather than N clones
// of one job.
func SyntheticWorkflow(i int) *runtime.Workflow {
	w := runtime.NewWorkflow()
	must := func(spec runtime.TaskSpec) {
		if err := w.Submit(spec); err != nil {
			panic(fmt.Sprintf("sdk: synthetic workflow %d: %v", i, err))
		}
	}
	scale := 1 + float64(i%3)/2 // 1x, 1.5x, 2x work
	switch i % 3 {
	case 0: // ingest -> compute -> publish pipeline
		must(runtime.TaskSpec{Name: "ingest", Flops: 2e9 * scale, OutputBytes: 1 << 21})
		must(runtime.TaskSpec{Name: "compute", Deps: []string{"ingest"},
			Flops: 3e10 * scale, InputBytes: 1 << 21, OutputBytes: 1 << 20})
		must(runtime.TaskSpec{Name: "publish", Deps: []string{"compute"},
			Flops: 1e9, InputBytes: 1 << 20})
	case 1: // fork-join ensemble
		must(runtime.TaskSpec{Name: "seed", Flops: 1e9, OutputBytes: 1 << 20})
		members := []string{"m0", "m1", "m2", "m3"}
		for _, m := range members {
			must(runtime.TaskSpec{Name: m, Deps: []string{"seed"},
				Flops: 8e9 * scale, InputBytes: 1 << 20, OutputBytes: 1 << 20})
		}
		must(runtime.TaskSpec{Name: "reduce", Deps: members,
			Flops: 2e9, InputBytes: 1 << 22})
	default: // diamond
		must(runtime.TaskSpec{Name: "load", Flops: 1e9, OutputBytes: 1 << 21})
		must(runtime.TaskSpec{Name: "left", Deps: []string{"load"},
			Flops: 1.2e10 * scale, InputBytes: 1 << 21, OutputBytes: 1 << 20})
		must(runtime.TaskSpec{Name: "right", Deps: []string{"load"},
			Flops: 9e9 * scale, InputBytes: 1 << 21, OutputBytes: 1 << 20})
		must(runtime.TaskSpec{Name: "merge", Deps: []string{"left", "right"},
			Flops: 2e9, InputBytes: 1 << 21})
	}
	return w
}

// SerialMakespan models the back-to-back baseline: each workflow served
// alone on a fresh engine over the SDK's cluster, one after another, so
// the total is the sum of the individual makespans. It is the denominator
// of the multiplexing speedup `basecamp serve engine` and the benchmarks
// report. Each engine takes ownership of the cluster (see
// runtime.NewEngine), so call it while no engine is serving on it.
func (s *SDK) SerialMakespan(policy runtime.Policy, ws ...*runtime.Workflow) (float64, error) {
	total := 0.0
	for i, w := range ws {
		sched, err := runtime.ServeAlone(s.Cluster, runtime.EngineConfig{Policy: policy}, w)
		if err != nil {
			return 0, fmt.Errorf("sdk: serving workflow %d alone: %w", i, err)
		}
		total += sched.Makespan
	}
	return total, nil
}
