package sdk

import (
	"fmt"

	"everest/internal/base2"
	"everest/internal/olympus"
	"everest/internal/runtime"
	"everest/internal/variants"
)

// This file closes the compilation side of the SDK loop (E-compile, the
// AdaptiveScenario with a kernel named): a kernel compiled
// source-to-schedule by the variant pipeline is published, staged, and
// served through the same adaptive engine the hand-declared scenarios use
// — except that here every latency the scheduler consults is derived:
// the fpga execution time from the HLS schedule inside the generated
// bitstream, the software times from the CPU cost model over the compiled
// loop nest, and the tuner seeds from the compiled operating points
// (Workflow.SetVariants).

// CompiledWorkflow builds one E-compile workflow around a compiled kernel:
// an ingest stage feeding two instances of the kernel (the paper's
// replicated inference pattern) and a publish stage. The kernel tasks'
// flops, transfer footprint, and FPGA offload request all come from the
// compilation; only the software ingest/publish stages — which never
// offload — carry workload constants. Index i varies ingest weight so a
// stream of submissions resembles mixed traffic.
func CompiledWorkflow(i int, c *variants.Compiled) *runtime.Workflow {
	w := runtime.NewWorkflow()
	must := func(spec runtime.TaskSpec) {
		if err := w.Submit(spec); err != nil {
			panic(fmt.Sprintf("sdk: compiled workflow %d: %v", i, err))
		}
	}
	scale := 1 + float64(i%3)/2
	must(runtime.TaskSpec{Name: "ingest", Flops: 1e9 * scale, OutputBytes: c.InputBytes})
	for _, name := range []string{"k0", "k1"} {
		must(c.Task(name, "ingest"))
	}
	must(runtime.TaskSpec{Name: "publish", Deps: []string{"k0", "k1"},
		Flops: 5e8, InputBytes: 2 * c.OutputBytes})
	return w
}

// DefaultCompileOptions is the E-compile flow configuration: fixed-point
// datapath (single-cycle accumulate, so the reduction does not bound the
// II), PLMs banked 8 ways, and the full Olympus optimization ladder.
func DefaultCompileOptions() variants.Options {
	fixed, err := base2.NewFixedFormat(4, 12)
	if err != nil {
		panic(fmt.Sprintf("sdk: default compile format: %v", err))
	}
	oly := DefaultOlympus()
	oly.MemPorts = 8
	return variants.Options{
		Backend: "vitis",
		Format:  fixed,
		Device:  "alveo-u55c",
		Olympus: oly,
	}
}

// DefaultOlympus is the full system-generation optimization ladder used by
// the compiled path (matching `basecamp compile` defaults).
func DefaultOlympus() olympus.Options {
	return olympus.Options{
		SharePLM: true, DoubleBuffer: true, Replicate: true,
		MaxReplicas: 8, PackData: true,
	}
}
