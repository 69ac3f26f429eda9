// Package everest is a from-scratch Go reproduction of the EVEREST System
// Development Kit ("A System Development Kit for Big Data Applications on
// FPGA-based Clusters: The EVEREST Approach", DATE 2024, arXiv:2402.12612).
//
// The module implements the SDK's three pillars over a simulated FPGA
// substrate (see DESIGN.md for the system inventory and the substitution
// table, and EXPERIMENTS.md for the reproduced claims):
//
//   - the data-driven compilation framework: the EVEREST Kernel Language
//     (internal/ekl), the ConDRust coordination language
//     (internal/condrust), the ML-model entry point (internal/onnxlite),
//     the MLIR dialect stack (internal/mlir, internal/mlir/dialects),
//     custom number formats (internal/base2), HLS scheduling
//     (internal/hls), Olympus system generation (internal/olympus), and
//     the closed compile loop (internal/variants) that turns any of those
//     sources into a bitstream plus derived cpu1/cpu16/fpga operating
//     points — nothing on the accelerated path carries a hand-declared
//     latency;
//   - the virtualized runtime environment, three serving tiers deep:
//     the concurrent multi-tenant engine with adaptive variant-aware
//     placement (internal/runtime, driven directly, its futures tallied
//     per tenant by sdk.TallyOf), the federation tier routing workflows
//     across engine sites with bounded LRU bitstream residency and deploy
//     pricing (internal/fleet, fronted by sdk.FleetServer), and the
//     streaming tier serving long-lived windowed pipelines with
//     shed-or-block backpressure and kernels resident in FPGA
//     partial-reconfiguration regions (internal/stream, fronted by
//     sdk.StreamServer) — all over the platform models
//     (internal/platform, internal/netsim), SR-IOV virtualization
//     (internal/virt, its VF hot-plug reaching the engine through
//     sdk.AttachHypervisor), and the mARGOt variant tuner each adaptive
//     engine embeds per workflow (internal/autotuner);
//   - the anomaly detection service (internal/anomaly) with TPE AutoML.
//
// The four driving use cases are implemented as workloads — WRF-style
// weather simulation (internal/wrf), renewable-energy prediction
// (internal/energy), air-quality monitoring (internal/airquality), and
// traffic modeling (internal/traffic) — and registered as multi-stage
// DAG applications with compiled per-stage bitstreams (internal/apps),
// served through the fleet tier as the mixed E-apps suite and through
// the streaming tier as the million-event E-stream feed.
//
// Everything runs in modelled time: deterministic across GOMAXPROCS
// (byte-identical trace streams, enforced under -race), allocation-free
// on the per-event hot paths (enforced by testing.AllocsPerRun budgets),
// and fast enough to sweep million-event scenarios in seconds. CI gates
// the headline metrics of every tier against committed BENCH_*.json
// baselines via cmd/benchgate.
//
// Entry points: the basecamp CLI (cmd/basecamp — compile, deploy,
// dialects, anomaly, `serve <scenario>` for one serving pass and
// `bench [E1..E14|scenario]` for the experiment tables and serving
// claims), the bench-regression gate (cmd/benchgate), and the runnable
// examples under examples/.
package everest
