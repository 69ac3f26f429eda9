package platform

import (
	"math"
	"testing"
)

func monitorCluster() *Cluster {
	return NewCluster(
		NewNode("n0", XeonModel(), AlveoU55C()),
		NewNode("n1", XeonModel()),
	)
}

func TestNodeConditionState(t *testing.T) {
	n := NewNode("n0", XeonModel(), AlveoU55C())
	nominal := n.RunCPU(1e10, 1<<20, 4)
	if live := n.RunCPULiveAt(1e10, 1<<20, 4, 0); math.Abs(live-nominal) > 1e-12 {
		t.Fatalf("unloaded node: live %g != nominal %g", live, nominal)
	}
	n.SetSlowdown(3, 1.0)
	if live := n.RunCPULiveAt(1e10, 1<<20, 4, 2.0); math.Abs(live-3*nominal) > 1e-9 {
		t.Fatalf("3x slowdown: live %g, want %g", live, 3*nominal)
	}
	// Condition timelines are modelled time: work starting before the
	// fault's effective time is priced nominally.
	if live := n.RunCPULiveAt(1e10, 1<<20, 4, 0.5); math.Abs(live-nominal) > 1e-12 {
		t.Fatalf("pre-fault start priced %g, want nominal %g", live, nominal)
	}
	if nom := n.RunCPU(1e10, 1<<20, 4); math.Abs(nom-nominal) > 1e-12 {
		t.Fatal("RunCPU must stay nominal under load")
	}
	n.SetSlowdown(0.25, 2.0) // clamps to 1
	if n.SlowdownAt(math.Inf(1)) != 1 {
		t.Fatalf("slowdown below 1 must clamp, got %g", n.SlowdownAt(math.Inf(1)))
	}

	if !n.DeviceOnline(0) {
		t.Fatal("device must start online")
	}
	if changed, err := n.SetDeviceOffline(0, true, 1.0); err != nil || !changed {
		t.Fatalf("unplug: changed=%v err=%v", changed, err)
	}
	if changed, err := n.SetDeviceOffline(0, true, 1.2); err != nil || changed {
		t.Fatalf("redundant unplug must not change state: changed=%v err=%v", changed, err)
	}
	if n.DeviceOnline(0) {
		t.Fatal("device must be offline after unplug")
	}
	if !n.DeviceOnlineAt(0, 0.5) {
		t.Fatal("device must read attached before the unplug time")
	}
	if changed, err := n.SetDeviceOffline(0, false, 2.0); err != nil || !changed {
		t.Fatalf("replug: changed=%v err=%v", changed, err)
	}
	if !n.DeviceOnline(0) || n.DeviceOnlineAt(0, 1.5) {
		t.Fatal("replug timeline wrong")
	}
	if _, err := n.SetDeviceOffline(5, true, 0); err == nil {
		t.Fatal("unknown device index must error")
	}
	n.SetSlowdown(4, 0)
	n.Reset()
	if n.SlowdownAt(math.Inf(1)) != 1 || !n.DeviceOnline(0) {
		t.Fatal("Reset must clear slowdown and reattach devices")
	}
}

// TestConditionTimelineMonotonicClamp: a transition stamped earlier than an
// already-recorded one (completion-count fault triggers see task-done times
// in report order, not modelled order) takes effect at the recorded
// frontier rather than silently rewriting the past.
func TestConditionTimelineMonotonicClamp(t *testing.T) {
	n := NewNode("n0", XeonModel(), AlveoU55C())
	if _, err := n.SetDeviceOffline(0, true, 1.0); err != nil {
		t.Fatal(err)
	}
	// Replug stamped in the modelled past of the unplug: must still win.
	if changed, err := n.SetDeviceOffline(0, false, 0.1); err != nil || !changed {
		t.Fatalf("out-of-order replug: changed=%v err=%v", changed, err)
	}
	if !n.DeviceOnline(0) {
		t.Fatal("replug must bring the device back despite the earlier stamp")
	}
	if !n.DeviceOnlineAt(0, 0.5) {
		t.Fatal("the pre-unplug past must stay attached")
	}
	// Both transitions clamp to t=1.0; the newest (the replug) wins there.
	if !n.DeviceOnlineAt(0, 1.0) {
		t.Fatal("at the clamped boundary the newest transition must win")
	}

	n.SetSlowdown(6, 2.0)
	n.SetSlowdown(1, 0.5) // restore stamped before the fault: clamps to 2.0
	if got := n.SlowdownAt(math.Inf(1)); got != 1 {
		t.Fatalf("restore must win: latest slowdown %g, want 1", got)
	}
	if got := n.SlowdownAt(1.0); got != 1 {
		t.Fatalf("slowdown at t=1.0 (before the fault) = %g, want 1", got)
	}
}

func TestMonitorLearnsSlowdown(t *testing.T) {
	m := NewMonitor(monitorCluster())
	if est := m.SlowdownEstimate(1); est != 1 {
		t.Fatalf("no evidence: estimate %g, want 1", est)
	}
	// A 4x-loaded node: the EWMA converges toward 4.
	for i := 0; i < 6; i++ {
		m.ObserveRatio(1, 4.0, 1.0)
	}
	if est := m.SlowdownEstimate(1); math.Abs(est-4) > 0.1 {
		t.Fatalf("estimate %g, want ~4", est)
	}
	// Recovery: nominal-speed observations pull it back down.
	for i := 0; i < 8; i++ {
		m.ObserveRatio(1, 1.0, 1.0)
	}
	if est := m.SlowdownEstimate(1); est > 1.1 {
		t.Fatalf("estimate after recovery %g, want ~1", est)
	}
	m.ObserveRatio(1, 1.0, 0) // zero nominal is ignored
}

func TestMonitorSnapshotAndAvailability(t *testing.T) {
	c := monitorCluster()
	m := NewMonitor(c)
	m.RecordTask(0, 2.0)
	m.RecordTask(0, 4.0)
	c.FindNode("n0").SetDeviceOffline(0, true, 0)
	c.FindNode("n1").Fail(1.0)

	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Node != "n0" || snap[1].Node != "n1" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	n0 := snap[0]
	if n0.Tasks != 2 || n0.EWMALatency != 3.0 {
		t.Fatalf("n0 stats: %+v (want 2 tasks, EWMA 3.0)", n0)
	}
	if n0.DevicesOnline != 0 || n0.DevicesTotal != 1 {
		t.Fatalf("n0 devices: %+v", n0)
	}
	if !snap[1].Failed {
		t.Fatal("n1 must report failed")
	}
}
