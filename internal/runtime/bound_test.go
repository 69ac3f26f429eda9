package runtime

import (
	"testing"

	"everest/internal/hls"
	"everest/internal/netsim"
	"everest/internal/platform"
)

func boundBitstream() platform.Bitstream {
	return platform.Bitstream{
		ID: "bs-bound", Kernel: "k", Target: "alveo-u55c",
		Report: hls.Report{LatencyCycle: 1 << 18, II: 1, IterLatency: 8,
			Resources: hls.Resources{LUT: 30000, FF: 40000, DSP: 64, BRAM: 32},
			ClockMHz:  300},
		Config: platform.SystemConfig{Replicas: 2, BusWidthBits: 512, Lanes: 4,
			PackedElements: 4, DoubleBuffered: true, PLMBytes: 1 << 16},
		ElemBits: 32,
	}
}

func TestServiceBoundNilWorkflow(t *testing.T) {
	if _, err := ServiceBound(nil, testCluster(1), platform.NewRegistry(), BoundOptions{}); err == nil {
		t.Fatal("nil workflow accepted")
	}
}

// TestServiceBoundSoftwareChain checks the software-only arithmetic: the
// bound is the sum over tasks of cpu1-on-slowest-node times the slowdown
// cap, plus one worst-case fabric transfer per produced dependency.
func TestServiceBoundSoftwareChain(t *testing.T) {
	c := testCluster(2)
	reg := platform.NewRegistry()
	w := chainWorkflow(t, 3)

	got, err := ServiceBound(w, c, reg, BoundOptions{SlowdownCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := range w.specs {
		ts := &w.specs[i]
		worst := 0.0
		for _, n := range c.Nodes {
			if v := n.RunCPU(ts.Flops, ts.InputBytes+ts.OutputBytes, 1) * 3; v > worst {
				worst = v
			}
		}
		want += worst
		for _, dep := range ts.Deps {
			d, _ := w.Get(dep)
			want += c.Network.TransferSeconds(d.OutputBytes)
		}
	}
	if diff := got - want; diff > 1e-12*want || diff < -1e-12*want {
		t.Fatalf("software chain bound = %g, want %g", got, want)
	}

	// Caps below 1 mean "no slowdown", never a discount.
	uncapped, err := ServiceBound(w, c, reg, BoundOptions{SlowdownCap: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	unit, err := ServiceBound(w, c, reg, BoundOptions{SlowdownCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if uncapped != unit {
		t.Fatalf("cap 0.25 bound %g != cap 1 bound %g", uncapped, unit)
	}
	if got <= unit {
		t.Fatalf("cap 3 bound %g must exceed cap 1 bound %g", got, unit)
	}
}

// TestServiceBoundNetOption prices dependency shipping over the explicit
// stack instead of the cluster fabric when BoundOptions.Net is set.
func TestServiceBoundNetOption(t *testing.T) {
	c := testCluster(1)
	w := chainWorkflow(t, 2)
	stack := netsim.TCP10G()

	fabric, err := ServiceBound(w, c, platform.NewRegistry(), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	overNet, err := ServiceBound(w, c, platform.NewRegistry(), BoundOptions{Net: &stack})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := w.Get("t0a")
	wantDelta := stack.SendSeconds(d.OutputBytes) - c.Network.TransferSeconds(d.OutputBytes)
	if diff := (overNet - fabric) - wantDelta; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("net-vs-fabric delta = %g, want %g", overNet-fabric, wantDelta)
	}
}

// TestServiceBoundFPGADominates: a registered accelerable task's bound must
// cover the schedule WCET on every device the bitstream fits, and an
// unknown bitstream id falls back to the software worst case instead of
// erroring (the engine would fall back to software there too).
func TestServiceBoundFPGADominates(t *testing.T) {
	c := testCluster(2)
	reg := platform.NewRegistry()
	bs := boundBitstream()
	if err := reg.Put(bs); err != nil {
		t.Fatal(err)
	}
	mk := func(id string) *Workflow {
		w := NewWorkflow()
		if err := w.Submit(TaskSpec{Name: "acc", Flops: 1e9,
			InputBytes: 1 << 20, OutputBytes: 1 << 18,
			NeedsFPGA: true, BitstreamID: id}); err != nil {
			t.Fatal(err)
		}
		return w
	}

	got, err := ServiceBound(mk(bs.ID), c, reg, BoundOptions{SlowdownCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl := platform.Workload{BytesIn: 1 << 20, BytesOut: 1 << 18, Batches: 4}
	for _, n := range c.Nodes {
		for _, d := range n.Devices {
			tl, err := platform.ExecuteBound(d, bs, wl)
			if err != nil {
				continue
			}
			if got < tl.Total {
				t.Fatalf("bound %g below device WCET %g", got, tl.Total)
			}
		}
	}

	soft, err := ServiceBound(mk("no-such-bitstream"), c, reg, BoundOptions{SlowdownCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if soft <= 0 {
		t.Fatalf("unknown bitstream must fall back to a positive software bound, got %g", soft)
	}
}

func TestServiceBoundNoAliveNode(t *testing.T) {
	c := testCluster(1)
	c.Nodes[0].Fail(0)
	w := chainWorkflow(t, 1)
	if _, err := ServiceBound(w, c, platform.NewRegistry(), BoundOptions{}); err == nil {
		t.Fatal("bound over a dead cluster accepted")
	}
}

// TestServiceBoundDominatesServeAlone is the soundness property at this
// layer: serving the workflow alone on an idle engine never exceeds the
// bound, fork-join and chain shapes alike.
func TestServiceBoundDominatesServeAlone(t *testing.T) {
	for _, tc := range []struct {
		name string
		wf   func() *Workflow
	}{
		{"chain", func() *Workflow { return chainWorkflow(t, 4) }},
		{"forkjoin", func() *Workflow { return forkJoinWorkflow(t, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(2)
			reg := platform.NewRegistry()
			bound, err := ServiceBound(tc.wf(), c, reg, BoundOptions{SlowdownCap: 1})
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(c, EngineConfig{})
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			defer e.Shutdown()
			fut, err := e.Submit(tc.wf(), SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sched, err := fut.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if sched.Makespan > bound {
				t.Fatalf("serve-alone makespan %g exceeds proven bound %g", sched.Makespan, bound)
			}
		})
	}
}
