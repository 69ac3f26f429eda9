package runtime

import (
	"math"
	"testing"

	"everest/internal/hls"
	"everest/internal/platform"
)

// TestScriptedEnvEventsApplyAtStart pins the Start-time condition
// timelines: every scripted kind lands on the right node state, and
// events naming unknown nodes are ignored.
func TestScriptedEnvEventsApplyAtStart(t *testing.T) {
	n0 := platform.NewNode("n0", platform.XeonModel(), platform.AlveoU55C())
	n1 := platform.NewNode("n1", platform.XeonModel(), platform.AlveoU55C())
	c := platform.NewCluster(n0, n1)
	e := NewEngine(c, EngineConfig{
		Events: []EnvEvent{
			{Kind: EnvUnplug, Node: "n0", Device: 0, At: 0.5},
			{Kind: EnvSlowdown, Node: "n1", Factor: 3, At: 0.25},
			{Kind: EnvPlug, Node: "n0", Device: 0, At: 1.5},
			{Kind: EnvUnplug, Node: "ghost", Device: 0, At: 0},
		},
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if !n0.DeviceOnlineAt(0, 0.4) {
		t.Fatal("device should be attached before the unplug time")
	}
	if n0.DeviceOnlineAt(0, 1.0) {
		t.Fatal("device should be detached between unplug and plug")
	}
	if !n0.DeviceOnlineAt(0, 2.0) {
		t.Fatal("device should be reattached after the plug time")
	}
	if got := n1.SlowdownAt(1.0); got != 3 {
		t.Fatalf("slowdown at 1.0 = %g, want 3", got)
	}
	if got := n1.SlowdownAt(0.1); got != 1 {
		t.Fatalf("slowdown before the event = %g, want 1", got)
	}
}

// TestControlRejectsNonFinite: a NaN or infinite time or factor, or an
// unknown kind, is refused by Apply and in the script at Start; a chain
// served after the refused calls stays finite.
func TestControlRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	calls := []struct {
		name string
		ev   EnvEvent
	}{
		{"slowdown factor NaN", EnvEvent{Kind: EnvSlowdown, Factor: nan}},
		{"slowdown factor +Inf", EnvEvent{Kind: EnvSlowdown, Factor: inf}},
		{"slowdown at NaN", EnvEvent{Kind: EnvSlowdown, Factor: 2, At: nan}},
		{"unplug at NaN", EnvEvent{Kind: EnvUnplug, At: nan}},
		{"unplug at +Inf", EnvEvent{Kind: EnvUnplug, At: inf}},
		{"plug at -Inf", EnvEvent{Kind: EnvPlug, At: -inf}},
		{"unknown kind", EnvEvent{Kind: EnvSlowdown + 1, At: 1}},
	}
	for _, tc := range calls {
		c := testCluster(2)
		e := startEngine(t, c, EngineConfig{})
		tc.ev.Node = c.Nodes[0].Name
		if err := e.Apply(tc.ev); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		fut, err := e.Submit(chainWorkflow(t, 3), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := fut.Wait()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, a := range sched.Assignments {
			if math.IsNaN(a.End) || math.IsInf(a.End, 0) {
				t.Errorf("%s: assignment %+v", tc.name, a)
			}
		}
		if math.IsNaN(sched.Makespan) || math.IsInf(sched.Makespan, 0) {
			t.Errorf("%s: makespan %g", tc.name, sched.Makespan)
		}
		e.Shutdown()
	}

	scripts := []struct {
		name   string
		cfg    EngineConfig
		refuse bool
	}{
		{"slowdown factor NaN", EngineConfig{Events: []EnvEvent{{Kind: EnvSlowdown, Node: nodeName(0), Factor: nan}}}, true},
		{"slowdown factor +Inf", EngineConfig{Events: []EnvEvent{{Kind: EnvSlowdown, Node: nodeName(0), Factor: inf}}}, true},
		{"unplug at NaN", EngineConfig{Events: []EnvEvent{{Kind: EnvUnplug, Node: nodeName(0), At: nan}}}, true},
		{"plug at +Inf", EngineConfig{Events: []EnvEvent{{Kind: EnvPlug, Node: nodeName(0), At: inf}}}, true},
		{"unknown kind", EngineConfig{Events: []EnvEvent{{Kind: -1, Node: nodeName(0), At: 1}}}, true},
		{"failure at NaN", EngineConfig{Failures: []NodeFailure{{Node: nodeName(0), AtTime: nan}}}, true},
		{"unknown node ignored", EngineConfig{
			Events:   []EnvEvent{{Kind: EnvSlowdown, Node: "ghost", Factor: nan, At: nan}},
			Failures: []NodeFailure{{Node: "ghost", AtTime: nan}},
		}, false},
	}
	for _, tc := range scripts {
		e := NewEngine(testCluster(2), tc.cfg)
		if err := e.Start(); (err != nil) != tc.refuse {
			t.Errorf("script %s: Start error %v, want refused=%v", tc.name, err, tc.refuse)
		}
		e.Shutdown()
	}
}

// TestScriptRejectsUnknownDevice: a scripted plug or unplug of a device
// index the node does not have is refused at Start, with Apply's own
// error for the same event, before any node is written.
func TestScriptRejectsUnknownDevice(t *testing.T) {
	for _, ev := range []EnvEvent{
		{Kind: EnvUnplug, Node: nodeName(0), Device: 5, At: 1},
		{Kind: EnvPlug, Node: nodeName(0), Device: -1, At: 1},
	} {
		c := testCluster(2)
		e := NewEngine(c, EngineConfig{
			Failures: []NodeFailure{{Node: nodeName(1), AtTime: 0.5}},
			Events:   []EnvEvent{ev},
		})
		want := e.Apply(ev)
		if want == nil {
			t.Fatalf("Apply accepted device %d", ev.Device)
		}
		err := e.Start()
		if err == nil || err.Error() != want.Error() {
			t.Errorf("event %+v: Start error %v, want %v", ev, err, want)
		}
		if _, failed := c.Nodes[1].FailedAt(); failed {
			t.Errorf("event %+v: refused Start wrote the scripted failure", ev)
		}
		e.Shutdown()
	}
}

func TestEventKindAndPolicyStrings(t *testing.T) {
	kinds := []EventKind{EventSubmit, EventTaskDone, EventTransfer, EventNodeFailure,
		EventReschedule, EventWorkflowDone, EventDeviceUnplug, EventDevicePlug,
		EventNodeSlowdown, EventVariant, EventKind(99)}
	want := []string{"submit", "task-done", "transfer", "node-failure", "reschedule",
		"workflow-done", "device-unplug", "device-plug", "node-slowdown", "variant", "unknown"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
	if PolicyHEFT.String() != "heft" || PolicyFIFO.String() != "fifo" {
		t.Fatalf("policy strings = %q/%q", PolicyHEFT.String(), PolicyFIFO.String())
	}
}

// TestFutureDoneAndFarFailure: a pre-Start future resolves at Start, and
// a node failure scripted far past the served work changes nothing.
func TestFutureDoneAndFarFailure(t *testing.T) {
	c := platform.NewCluster(
		platform.NewNode("n0", platform.XeonModel()),
		platform.NewNode("n1", platform.XeonModel()),
	)
	e := NewEngine(c, EngineConfig{Failures: []NodeFailure{{Node: "n1", AtTime: 1e6}}})
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{Name: "a", Flops: 1e9}); err != nil {
		t.Fatal(err)
	}
	early, err := e.Submit(w, SubmitOptions{Name: "early"})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing serves a pre-Start future until Start: Wait says so instead
	// of blocking.
	if sched, err := early.Wait(); err == nil || sched != nil {
		t.Fatalf("Wait before Start = %v, %v; want an error", sched, err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	late, err := e.Submit(w, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fut := range []*Future{early, late} {
		sched, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Assignments) != 1 {
			t.Fatalf("%s: got %d assignments, want 1", fut.Name, len(sched.Assignments))
		}
	}
	e.Shutdown()
}

// TestAdaptiveUnplugThenPlugMidRun drives the full environment loop: an
// adaptive engine loses its only programmed accelerator between two
// workflows and gets it back before a third, each change one Apply, with
// workflows completing throughout and every change traced.
func TestAdaptiveUnplugThenPlugMidRun(t *testing.T) {
	n0 := platform.NewNode("n0", platform.XeonModel(), platform.AlveoU55C())
	n1 := platform.NewNode("n1", platform.XeonModel())
	c := platform.NewCluster(n0, n1)
	bs := platform.Bitstream{
		ID: "bs-ctrl", Kernel: "k", Target: "alveo-u55c",
		Report: hls.Report{LatencyCycle: 1 << 18, II: 1, IterLatency: 8,
			Resources: hls.Resources{LUT: 30000, FF: 40000, DSP: 64, BRAM: 32},
			ClockMHz:  300},
		Config: platform.SystemConfig{Replicas: 2, BusWidthBits: 512, Lanes: 4,
			PackedElements: 4, DoubleBuffered: true, PLMBytes: 1 << 16},
		ElemBits: 32,
	}
	if _, err := n0.Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	var events []Event
	e := NewEngine(c, EngineConfig{
		Adaptive: true,
		Trace:    func(ev Event) { events = append(events, ev) },
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wf := func() *Workflow {
		w := NewWorkflow()
		if err := w.Submit(TaskSpec{Name: "prep", Flops: 1e9, OutputBytes: 1 << 18}); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"mc0", "mc1"} {
			if err := w.Submit(TaskSpec{Name: name, Deps: []string{"prep"},
				Flops: 2e10, InputBytes: 1 << 18, OutputBytes: 1 << 16,
				NeedsFPGA: true, BitstreamID: bs.ID}); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	run := func() *Schedule {
		fut, err := e.Submit(wf(), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}
	first := run()
	unplug := EnvEvent{Kind: EnvUnplug, Node: "n0", At: first.Makespan}
	if err := e.Apply(unplug); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(unplug); err != nil { // redundant: no-op
		t.Fatal(err)
	}
	second := run()
	for _, a := range second.Assignments {
		if a.OnFPGA && a.Start > first.Makespan {
			t.Fatalf("post-unplug FPGA placement: %+v", a)
		}
	}
	if err := e.Apply(EnvEvent{Kind: EnvPlug, Node: "n0", At: second.Makespan}); err != nil {
		t.Fatal(err)
	}
	third := run()
	onFPGA := 0
	for _, a := range third.Assignments {
		if a.OnFPGA {
			onFPGA++
		}
	}
	if onFPGA == 0 {
		t.Fatal("replugged accelerator should attract offload again")
	}
	if err := e.Apply(EnvEvent{Kind: EnvSlowdown, Node: "n1", Factor: 4, At: third.Makespan}); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	seen := make(map[EventKind]bool)
	for _, ev := range events {
		seen[ev.Kind] = true
	}
	for _, k := range []EventKind{EventDeviceUnplug, EventDevicePlug, EventNodeSlowdown, EventVariant} {
		if !seen[k] {
			t.Fatalf("trace missing %v events", k)
		}
	}
}
