package virt

import (
	"slices"
	"sync"
	"testing"

	"everest/internal/hls"
	"everest/internal/platform"
)

func testNode(t *testing.T) *platform.Node {
	t.Helper()
	n := platform.NewNode("hv0", platform.XeonModel(), platform.AlveoU55C())
	bs := platform.Bitstream{
		ID: "bs", Kernel: "k", Target: "alveo-u55c",
		Report: hls.Report{LatencyCycle: 1 << 22, II: 1, IterLatency: 8,
			Resources: hls.Resources{LUT: 10000, FF: 10000, DSP: 20, BRAM: 10}, ClockMHz: 300},
		Config: platform.SystemConfig{Replicas: 1, BusWidthBits: 512, Lanes: 1,
			PackedElements: 8, PLMBytes: 1 << 16},
		ElemBits: 64,
	}
	if _, err := n.Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestHypervisorSetup(t *testing.T) {
	if _, err := NewHypervisor(testNode(t), 0); err == nil {
		t.Error("zero VFs must fail")
	}
	h, err := NewHypervisor(testNode(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	st := h.Query()
	if st.FreeVFs[0] != 4 {
		t.Errorf("free VFs = %d, want 4", st.FreeVFs[0])
	}
}

func TestVMLifecycle(t *testing.T) {
	h, _ := NewHypervisor(testNode(t), 2)
	if _, err := h.DefineVM("", 1); err == nil {
		t.Error("unnamed VM must fail")
	}
	vm, err := h.DefineVM("guest1", 4)
	if err != nil || vm.Name != "guest1" {
		t.Fatal(err)
	}
	if _, err := h.DefineVM("guest1", 2); err == nil {
		t.Error("duplicate VM must fail")
	}
}

func TestPlugUnplug(t *testing.T) {
	h, _ := NewHypervisor(testNode(t), 2)
	if _, err := h.DefineVM("g1", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.DefineVM("g2", 2); err != nil {
		t.Fatal(err)
	}
	dt, err := h.PlugVF("g1", 0)
	if err != nil || dt != HotplugSeconds {
		t.Fatalf("PlugVF: %v (%g)", err, dt)
	}
	if _, err := h.PlugVF("g1", 0); err != nil {
		t.Fatal(err)
	}
	// Pool of 2 exhausted.
	if _, err := h.PlugVF("g2", 0); err == nil {
		t.Error("exhausted VF pool must fail (SR-IOV static nature)")
	}
	// Unplug frees one for g2: the dynamic mechanism of §VI-B.
	if _, err := h.UnplugVF("g1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.PlugVF("g2", 0); err != nil {
		t.Errorf("freed VF must be pluggable: %v", err)
	}
	if _, err := h.UnplugVF("g2", 5); err == nil {
		t.Error("unplug of unheld device must fail")
	}
	if _, err := h.PlugVF("ghost", 0); err == nil {
		t.Error("plug into unknown VM must fail")
	}
}

// kernelTime prices wl on the test node's programmed kernel, the
// timeline RunAccelerated applies its I/O path to.
func kernelTime(t *testing.T, n *platform.Node, wl platform.Workload) platform.Timeline {
	t.Helper()
	tl, ok := n.KernelTime(0, "bs", wl, -1)
	if !ok {
		t.Fatal("the test kernel must run on device 0")
	}
	return tl
}

func TestIOPathOverheads(t *testing.T) {
	n := testNode(t)
	h, _ := NewHypervisor(n, 2)
	if _, err := h.DefineVM("g1", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.PlugVF("g1", 0); err != nil {
		t.Fatal(err)
	}
	kernel := kernelTime(t, n, platform.Workload{BytesIn: 1 << 26, BytesOut: 1 << 24})

	native, err := h.RunAccelerated("g1", 0, kernel, Native)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := h.RunAccelerated("g1", 0, kernel, VFPassthrough)
	if err != nil {
		t.Fatal(err)
	}
	vio, err := h.RunAccelerated("g1", 0, kernel, VirtIO)
	if err != nil {
		t.Fatal(err)
	}
	if vf.Total <= native.Total {
		t.Error("VF passthrough must cost a little over native")
	}
	// Near-native: within 5% on the total (I/O-dominated workload).
	if vf.Total > native.Total*1.05 {
		t.Errorf("VF passthrough overhead too high: %g vs %g", vf.Total, native.Total)
	}
	if vio.Total <= vf.Total {
		t.Error("virtio path must be slower than VF passthrough")
	}
}

func TestVFRequiredForPassthrough(t *testing.T) {
	n := testNode(t)
	h, _ := NewHypervisor(n, 1)
	if _, err := h.DefineVM("g1", 1); err != nil {
		t.Fatal(err)
	}
	kernel := kernelTime(t, n, platform.Workload{BytesIn: 1 << 20})
	if _, err := h.RunAccelerated("g1", 0, kernel, VFPassthrough); err == nil {
		t.Error("passthrough without a VF must fail")
	}
	if _, err := h.RunAccelerated("g1", 0, kernel, VirtIO); err != nil {
		t.Errorf("virtio path needs no VF: %v", err)
	}
}

func TestRebalance(t *testing.T) {
	h, _ := NewHypervisor(testNode(t), 4)
	if _, err := h.DefineVM("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.DefineVM("b", 1); err != nil {
		t.Fatal(err)
	}
	dt, err := h.Rebalance(map[string]map[int]int{
		"a": {0: 3},
		"b": {0: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Error("rebalance must take hot-plug time")
	}
	st := h.Query()
	if st.VMs[0].VFs != 3 || st.VMs[1].VFs != 1 {
		t.Errorf("rebalance result wrong: %+v", st.VMs)
	}
	// Shift demand: a shrinks, b grows.
	if _, err := h.Rebalance(map[string]map[int]int{
		"a": {0: 1},
		"b": {0: 3},
	}); err != nil {
		t.Fatal(err)
	}
	st = h.Query()
	if st.VMs[0].VFs != 1 || st.VMs[1].VFs != 3 {
		t.Errorf("second rebalance wrong: %+v", st.VMs)
	}
}

func TestQueryDeterministicOrder(t *testing.T) {
	h, _ := NewHypervisor(testNode(t), 2)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := h.DefineVM(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Query()
	if st.VMs[0].Name != "alpha" || st.VMs[2].Name != "zeta" {
		t.Errorf("VM order must be sorted: %+v", st.VMs)
	}
}

func TestHotplugEvents(t *testing.T) {
	h, _ := NewHypervisor(testNode(t), 2)
	var events []HotplugEvent
	h.Subscribe(func(ev HotplugEvent) { events = append(events, ev) })
	h.Subscribe(nil) // ignored

	if _, err := h.DefineVM("guest1", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.PlugVF("guest1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.PlugVF("guest1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.UnplugVF("guest1", 0); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	first := events[0]
	if first.Kind != VFPlugged || first.Node != "hv0" || first.VM != "guest1" ||
		first.Device != 0 || first.FreeVFs != 1 || first.AssignedVFs != 1 {
		t.Errorf("first event: %+v", first)
	}
	last := events[2]
	if last.Kind != VFUnplugged || last.FreeVFs != 1 || last.AssignedVFs != 1 {
		t.Errorf("unplug event: %+v", last)
	}

	// Unplugging the remaining VF: the AssignedVFs count dropping to zero
	// is the signal the resource manager keys on.
	events = nil
	if _, err := h.UnplugVF("guest1", 0); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != VFUnplugged || events[0].AssignedVFs != 0 {
		t.Fatalf("last unplug events: %+v", events)
	}
	// A subscriber may call back into the hypervisor without deadlocking.
	h.Subscribe(func(ev HotplugEvent) { h.Query() })
	if _, err := h.DefineVM("guest2", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.PlugVF("guest2", 0); err != nil {
		t.Fatal(err)
	}
}

// TestHotplugSubscriberPanicReleasesDrain: a subscriber that panics once
// must not wedge delivery. Its panic reaches the plug that was draining,
// the event its callback enqueued stays queued, and the next plug
// delivers that event and its own, in order, to every subscriber.
func TestHotplugSubscriberPanicReleasesDrain(t *testing.T) {
	h, _ := NewHypervisor(testNode(t), 2)
	if _, err := h.DefineVM("guest", 2); err != nil {
		t.Fatal(err)
	}
	panicked := false
	h.Subscribe(func(ev HotplugEvent) {
		if !panicked {
			panicked = true
			if _, err := h.UnplugVF("guest", 0); err != nil {
				t.Error(err)
			}
			panic("subscriber failed")
		}
	})
	var got []HotplugKind
	h.Subscribe(func(ev HotplugEvent) { got = append(got, ev.Kind) })

	func() {
		defer func() {
			if r := recover(); r != "subscriber failed" {
				t.Fatalf("PlugVF recovered %v, want the subscriber's panic", r)
			}
		}()
		h.PlugVF("guest", 0)
	}()
	if len(got) != 0 {
		t.Fatalf("second subscriber saw %v before the panicking one returned", got)
	}
	if _, err := h.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	if want := []HotplugKind{VFUnplugged, VFPlugged}; !slices.Equal(got, want) {
		t.Fatalf("after the panic, the next plug delivered %v, want %v", got, want)
	}
}

// TestHotplugOrderingNestedCallback pins delivery order: a subscriber that
// mutates VF state from inside a callback sees its event delivered after
// the one in flight, in mutation order.
func TestHotplugOrderingNestedCallback(t *testing.T) {
	h, _ := NewHypervisor(testNode(t), 2)
	if _, err := h.DefineVM("guest", 2); err != nil {
		t.Fatal(err)
	}
	var order []HotplugKind
	nested := false
	h.Subscribe(func(ev HotplugEvent) {
		order = append(order, ev.Kind)
		if !nested {
			nested = true
			if _, err := h.PlugVF("guest", 0); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := h.UnplugVF("guest", 0); err == nil {
		t.Fatal("unplug with no VF must fail before any event")
	}
	if _, err := h.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != VFPlugged || order[1] != VFPlugged {
		t.Fatalf("delivery order: %v, want [%d %d] (VFPlugged twice)", order, VFPlugged, VFPlugged)
	}
}

// TestHotplugOrderingConcurrent races two VMs plugging and unplugging VFs
// of the same device: because events are enqueued under the state lock and
// drained in order, the last delivered AssignedVFs count must match the
// device's final state.
func TestHotplugOrderingConcurrent(t *testing.T) {
	h, _ := NewHypervisor(testNode(t), 4)
	for _, vm := range []string{"vm-a", "vm-b"} {
		if _, err := h.DefineVM(vm, 1); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	last := -1
	h.Subscribe(func(ev HotplugEvent) {
		mu.Lock()
		last = ev.AssignedVFs
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for _, vm := range []string{"vm-a", "vm-b"} {
		wg.Add(1)
		go func(vm string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := h.PlugVF(vm, 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.UnplugVF(vm, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(vm)
	}
	wg.Wait()
	st := h.Query()
	mu.Lock()
	defer mu.Unlock()
	if want := 4 - st.FreeVFs[0]; last != want {
		t.Fatalf("last delivered AssignedVFs = %d, want %d (final state)", last, want)
	}
}
