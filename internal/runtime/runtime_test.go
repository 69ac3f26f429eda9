package runtime

import (
	"reflect"
	"testing"

	"everest/internal/hls"
	"everest/internal/platform"
)

func testCluster(nodes int) *platform.Cluster {
	var ns []*platform.Node
	for i := 0; i < nodes; i++ {
		ns = append(ns, platform.NewNode(nodeName(i), platform.XeonModel(), platform.AlveoU55C()))
	}
	return platform.NewCluster(ns...)
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }

func chainWorkflow(t *testing.T, n int) *Workflow {
	t.Helper()
	w := NewWorkflow()
	for i := 0; i < n; i++ {
		spec := TaskSpec{Name: taskName(i), Flops: 1e9, InputBytes: 1 << 20, OutputBytes: 1 << 20}
		if i > 0 {
			spec.Deps = []string{taskName(i - 1)}
		}
		if err := w.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func forkJoinWorkflow(t *testing.T, width int) *Workflow {
	t.Helper()
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{Name: "src", Flops: 1e8, OutputBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	var mids []string
	for i := 0; i < width; i++ {
		name := "mid" + taskName(i)
		if err := w.Submit(TaskSpec{Name: name, Deps: []string{"src"},
			Flops: 2e9, InputBytes: 1 << 20, OutputBytes: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		mids = append(mids, name)
	}
	if err := w.Submit(TaskSpec{Name: "sink", Deps: mids, Flops: 1e8, InputBytes: 1 << 22}); err != nil {
		t.Fatal(err)
	}
	return w
}

func taskName(i int) string { return "t" + string(rune('0'+i%10)) + string(rune('a'+i/10)) }

func TestWorkflowValidation(t *testing.T) {
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{}); err == nil {
		t.Error("empty name must fail")
	}
	if err := w.Submit(TaskSpec{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(TaskSpec{Name: "a"}); err == nil {
		t.Error("duplicate must fail")
	}
	if err := w.Submit(TaskSpec{Name: "b", Deps: []string{"zz"}}); err == nil {
		t.Error("unknown dep must fail")
	}
}

// serveAlone serves w alone on a fresh engine and fails the test on error.
func serveAlone(t *testing.T, c *platform.Cluster, cfg EngineConfig, w *Workflow) *Schedule {
	t.Helper()
	sched, err := ServeAlone(c, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestForkJoinUsesMultipleNodes(t *testing.T) {
	sched := serveAlone(t, testCluster(4), EngineConfig{Policy: PolicyHEFT}, forkJoinWorkflow(t, 8))
	used := make(map[string]bool)
	for _, a := range sched.Assignments {
		used[a.Node] = true
	}
	if len(used) < 3 {
		t.Errorf("fork-join should spread over nodes, used %d", len(used))
	}
	if sched.Transfers == 0 {
		t.Error("cross-node assignment must record transfers")
	}
}

// heterogeneousCluster has two Xeon nodes ahead of one faster EPYC node,
// the node order sdk.DefaultCluster uses.
func heterogeneousCluster() *platform.Cluster {
	return platform.NewCluster(
		platform.NewNode(nodeName(0), platform.XeonModel(), platform.AlveoU55C()),
		platform.NewNode(nodeName(1), platform.XeonModel(), platform.AlveoU55C()),
		platform.NewNode("fast-node", platform.EPYCModel(), platform.CloudFPGA()),
	)
}

func TestHEFTBeatsFIFOOnHeterogeneousDAG(t *testing.T) {
	// A dependency chain on a cluster whose fastest node comes last: HEFT
	// follows earliest finish onto the fast node, FIFO takes the first node
	// free at time 0 and keeps the chain there at Xeon speed. (With cheap
	// side tasks beside the chain the two tie or FIFO wins: the engine
	// places tasks as they become ready, with no upward-rank ordering.)
	cluster := heterogeneousCluster()
	heft := serveAlone(t, cluster, EngineConfig{Policy: PolicyHEFT}, chainWorkflow(t, 6))
	fifo := serveAlone(t, cluster, EngineConfig{Policy: PolicyFIFO}, chainWorkflow(t, 6))
	if heft.Makespan >= fifo.Makespan {
		t.Errorf("HEFT (%g) must beat FIFO (%g)", heft.Makespan, fifo.Makespan)
	}
	for _, a := range heft.Assignments {
		if a.Node != "fast-node" {
			t.Errorf("HEFT placed %s on %s, want the fast node", a.Task, a.Node)
		}
	}
}

func TestLoadBalancing(t *testing.T) {
	// 16 independent equal tasks on 4 nodes must balance well.
	w := NewWorkflow()
	for i := 0; i < 16; i++ {
		if err := w.Submit(TaskSpec{Name: taskName(i), Flops: 1e10}); err != nil {
			t.Fatal(err)
		}
	}
	sched := serveAlone(t, testCluster(4), EngineConfig{Policy: PolicyHEFT}, w)
	if imb := sched.LoadImbalance(); imb > 1.5 {
		t.Errorf("load imbalance %g too high for uniform tasks", imb)
	}
}

func TestFailureRecovery(t *testing.T) {
	cluster := testCluster(3)
	base := serveAlone(t, cluster, EngineConfig{Policy: PolicyHEFT}, chainWorkflow(t, 6))
	// Fail the node that runs the chain midway.
	victim := base.Assignments[2].Node
	failTime := base.Assignments[2].Start + 1e-9

	rec := serveAlone(t, cluster, EngineConfig{
		Policy:   PolicyHEFT,
		Failures: []NodeFailure{{Node: victim, AtTime: failTime}},
	}, chainWorkflow(t, 6))
	restarted := 0
	for _, a := range rec.Assignments {
		if a.Restart {
			restarted++
		}
		if a.Node == victim && a.End > failTime {
			t.Errorf("task %s placed on the dead node past its failure", a.Task)
		}
	}
	if restarted == 0 {
		t.Error("failure must cause at least one restart")
	}
	if rec.Makespan < base.Makespan {
		t.Error("recovered schedule cannot be faster than the failure-free one")
	}
	if rec.Makespan > base.Makespan*3 {
		t.Errorf("recovery makespan inflation too high: %g vs %g", rec.Makespan, base.Makespan)
	}
}

// TestServeAloneIsRepeatable: serving the same workflow alone twice on
// one cluster gives the same schedule, with and without injected failures
// — each fresh engine clears what the previous run left on the cluster.
func TestServeAloneIsRepeatable(t *testing.T) {
	cluster := testCluster(3)
	base := serveAlone(t, cluster, EngineConfig{Policy: PolicyHEFT}, forkJoinWorkflow(t, 8))
	mid := base.Assignments[len(base.Assignments)/2]
	failures := []NodeFailure{{Node: mid.Node, AtTime: mid.Start + 1e-9}}
	for _, cfg := range []EngineConfig{
		{Policy: PolicyHEFT},
		{Policy: PolicyHEFT, Failures: failures},
		{Policy: PolicyFIFO, Failures: failures},
	} {
		first := serveAlone(t, cluster, cfg, forkJoinWorkflow(t, 8))
		second := serveAlone(t, cluster, cfg, forkJoinWorkflow(t, 8))
		if !reflect.DeepEqual(first, second) {
			t.Errorf("policy %s, %d failures: reruns differ:\n%+v\n%+v",
				cfg.Policy, len(cfg.Failures), first, second)
		}
		if len(cfg.Failures) > 0 && first.Adapt.Reschedules == 0 {
			t.Errorf("policy %s: the failure at %g s on %s hit no task",
				cfg.Policy, failures[0].AtTime, failures[0].Node)
		}
	}
}

func fpgaBitstream() platform.Bitstream {
	return platform.Bitstream{
		ID: "bs-ptdr", Kernel: "ptdr", Target: "alveo-u55c",
		Report: hls.Report{
			LatencyCycle: 1 << 18, II: 1, IterLatency: 12,
			Resources: hls.Resources{LUT: 50000, FF: 60000, DSP: 120, BRAM: 64},
			ClockMHz:  300,
		},
		Config: platform.SystemConfig{
			Replicas: 4, BusWidthBits: 512, Lanes: 4, PackedElements: 8,
			DoubleBuffered: true, PLMBytes: 1 << 18,
		},
		ElemBits: 64,
	}
}

func TestEmptyWorkflowPlan(t *testing.T) {
	sched, err := ServeAlone(testCluster(1), EngineConfig{}, NewWorkflow())
	if err != nil || sched.Makespan != 0 {
		t.Errorf("empty workflow served alone: %v %v", sched, err)
	}
}
