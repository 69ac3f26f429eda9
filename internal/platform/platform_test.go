package platform

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"everest/internal/hls"
)

func testBitstream(replicas, lanes, packed int, double bool) Bitstream {
	return Bitstream{
		ID: "test", Kernel: "k", Target: "alveo-u55c",
		Report: hls.Report{
			Kernel: "k", Backend: "vitis",
			LatencyCycle: 1 << 20, II: 1, IterLatency: 10,
			Resources: hls.Resources{LUT: 10000, FF: 12000, DSP: 30, BRAM: 16},
			ClockMHz:  300,
		},
		Config: SystemConfig{
			Replicas: replicas, BusWidthBits: 512, Lanes: lanes,
			PackedElements: packed, DoubleBuffered: double, PLMBytes: 1 << 16,
		},
		ElemBits: 64,
	}
}

func TestDeviceCatalog(t *testing.T) {
	for _, name := range []string{"alveo-u55c", "alveo-u280", "cloudfpga"} {
		d, err := DeviceByName(name)
		if err != nil || d == nil {
			t.Fatalf("DeviceByName(%s): %v", name, err)
		}
		if d.Capacity.LUT == 0 || d.Memory.BandwidthGBs == 0 {
			t.Errorf("%s has empty specs", name)
		}
	}
	if _, err := DeviceByName("stratix"); err == nil {
		t.Error("unknown device must error")
	}
	if AlveoU55C().Attachment != PCIeAttached {
		t.Error("U55C must be PCIe attached")
	}
	if CloudFPGA().Attachment != NetworkAttached {
		t.Error("cloudFPGA must be network attached")
	}
}

func TestLinkTransfer(t *testing.T) {
	l := LinkSpec{BandwidthGBs: 10, LatencyUs: 5}
	if got := l.TransferSeconds(0); got < 4.9e-6 || got > 5.1e-6 {
		t.Errorf("zero-byte transfer = %g, want ~latency only", got)
	}
	got := l.TransferSeconds(10 * 1e9)
	if got < 1.0 || got > 1.001 {
		t.Errorf("10GB over 10GB/s = %g, want ~1s", got)
	}
}

func TestExecuteBasics(t *testing.T) {
	dev := AlveoU55C()
	bs := testBitstream(1, 1, 1, false)
	wl := Workload{BytesIn: 1 << 26, BytesOut: 1 << 24}
	tl, err := Execute(dev, bs, wl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Total <= 0 || tl.Compute <= 0 || tl.TransferIn <= 0 {
		t.Errorf("degenerate timeline: %+v", tl)
	}
	if tl.Total < tl.TransferIn+tl.Compute {
		t.Error("unbuffered total must include transfer + compute")
	}
}

func TestExecuteRejectsOverflow(t *testing.T) {
	dev := CloudFPGA()
	bs := testBitstream(1, 1, 1, false)
	bs.Report.Resources = hls.Resources{LUT: 10 << 20} // enormous
	if _, err := Execute(dev, bs, Workload{BytesIn: 1}); err == nil {
		t.Error("oversized bitstream must be rejected")
	}
	bad := testBitstream(0, 1, 1, false)
	if _, err := Execute(dev, bad, Workload{}); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestDoubleBufferingOverlaps(t *testing.T) {
	dev := AlveoU55C()
	seq := testBitstream(1, 1, 1, false)
	dbl := testBitstream(1, 1, 1, true)
	wl := Workload{BytesIn: 1 << 28, BytesOut: 1 << 28, Batches: 16}
	t1, err := Execute(dev, seq, wl)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Execute(dev, dbl, wl)
	if err != nil {
		t.Fatal(err)
	}
	if t2.Total >= t1.Total {
		t.Errorf("double buffering must overlap: %g vs %g", t2.Total, t1.Total)
	}
}

func TestReplicationSpeedsCompute(t *testing.T) {
	dev := AlveoU55C()
	one := testBitstream(1, 1, 8, false)
	four := testBitstream(4, 4, 8, false)
	wl := Workload{BytesIn: 1 << 20, BytesOut: 1 << 20}
	t1, err := Execute(dev, one, wl)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Execute(dev, four, wl)
	if err != nil {
		t.Fatal(err)
	}
	if t4.Compute >= t1.Compute {
		t.Errorf("replication must cut compute: %g vs %g", t4.Compute, t1.Compute)
	}
}

func TestPackingRaisesEffectiveBandwidth(t *testing.T) {
	dev := AlveoU55C()
	unpacked := testBitstream(1, 1, 1, false)
	packed := testBitstream(1, 1, 8, false)
	wl := Workload{BytesIn: 1 << 30, BytesOut: 1 << 28}
	t1, err := Execute(dev, unpacked, wl)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Execute(dev, packed, wl)
	if err != nil {
		t.Fatal(err)
	}
	if t2.EffBWGBs <= t1.EffBWGBs {
		t.Errorf("packing must raise effective bandwidth: %g vs %g", t2.EffBWGBs, t1.EffBWGBs)
	}
}

func TestNetworkAttachedPaysLinkCost(t *testing.T) {
	wl := Workload{BytesIn: 1 << 28, BytesOut: 1 << 26}
	bsA := testBitstream(1, 1, 8, false)
	tlA, err := Execute(AlveoU55C(), bsA, wl)
	if err != nil {
		t.Fatal(err)
	}
	bsC := testBitstream(1, 1, 8, false)
	bsC.Report.Resources = hls.Resources{LUT: 5000, FF: 5000, DSP: 10, BRAM: 8}
	tlC, err := Execute(CloudFPGA(), bsC, wl)
	if err != nil {
		t.Fatal(err)
	}
	if tlC.TransferIn <= tlA.TransferIn {
		t.Error("10G network transfers must be slower than PCIe")
	}
}

func TestNodeProgramAndRun(t *testing.T) {
	n := NewNode("n0", XeonModel(), AlveoU55C())
	bs := testBitstream(1, 1, 1, false)
	if _, ok := n.KernelTime(0, bs.ID, Workload{BytesIn: 1}, -1); ok {
		t.Error("running an unprogrammed device must fail")
	}
	dt, err := n.Program(0, -1, bs)
	if err != nil || dt <= 0 {
		t.Fatalf("Program: %v (%g)", err, dt)
	}
	if _, ok := n.Programmed(0); !ok {
		t.Error("Programmed must report the bitstream")
	}
	if _, ok := n.KernelTime(0, bs.ID, Workload{BytesIn: 1 << 20}, -1); !ok {
		t.Error("KernelTime must price the programmed kernel")
	}
	if _, err := n.Program(5, -1, bs); err == nil {
		t.Error("bad device index must fail")
	}
}

func TestCPUModel(t *testing.T) {
	cpu := XeonModel()
	t1 := cpu.TimeSeconds(1e9, 0, 1)
	tAll := cpu.TimeSeconds(1e9, 0, 0)
	if tAll >= t1 {
		t.Error("more cores must be faster for compute-bound work")
	}
	// Memory-bound work does not scale with cores.
	m1 := cpu.TimeSeconds(1, 80e9, 1)
	if m1 < 0.99 {
		t.Errorf("80GB over 80GB/s should take ~1s, got %g", m1)
	}
}

func TestClusterTransfer(t *testing.T) {
	c := NewCluster(NewNode("a", XeonModel()), NewNode("b", XeonModel()))
	if c.BatchTransferSeconds("a", "a", 1<<30, 1) != 0 {
		t.Error("same-node transfer must be free")
	}
	if c.BatchTransferSeconds("a", "b", 1<<30, 1) <= 0 {
		t.Error("cross-node transfer must cost time")
	}
	if c.FindNode("a") == nil || c.FindNode("zz") != nil {
		t.Error("FindNode broken")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	bs := testBitstream(1, 1, 1, false)
	if err := r.Put(bs); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get("test")
	if err != nil || got.Kernel != "k" {
		t.Errorf("Get: %v", err)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Error("missing ID must error")
	}
	if err := r.Put(Bitstream{}); err == nil {
		t.Error("empty ID must error")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []SystemConfig{
		{Replicas: 0, BusWidthBits: 512, Lanes: 1, PackedElements: 1},
		{Replicas: 1, BusWidthBits: 0, Lanes: 1, PackedElements: 1},
		{Replicas: 1, BusWidthBits: 512, Lanes: 3, PackedElements: 1},
		{Replicas: 1, BusWidthBits: 512, Lanes: 1, PackedElements: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d must be invalid", i)
		}
	}
}

func TestMoreBatchesNeverSlowerProperty(t *testing.T) {
	dev := AlveoU55C()
	prop := func(b uint8) bool {
		batches := int(b%16) + 2
		bs := testBitstream(1, 1, 1, true)
		wl1 := Workload{BytesIn: 1 << 28, BytesOut: 1 << 28, Batches: 1}
		wlN := Workload{BytesIn: 1 << 28, BytesOut: 1 << 28, Batches: batches}
		t1, err1 := Execute(dev, bs, wl1)
		tn, err2 := Execute(dev, bs, wlN)
		if err1 != nil || err2 != nil {
			return false
		}
		return tn.Total <= t1.Total+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNodeFailureState(t *testing.T) {
	n := NewNode("n0", XeonModel())
	if _, failed := n.FailedAt(); failed {
		t.Error("fresh node must not be failed")
	}
	n.Fail(5.0)
	n.Fail(7.0) // later failure must not move the time forward
	if at, failed := n.FailedAt(); !failed || at != 5.0 {
		t.Errorf("FailedAt = %v %v, want 5 true", at, failed)
	}
	n.Fail(2.0) // earlier failure wins
	if at, _ := n.FailedAt(); at != 2.0 {
		t.Errorf("earliest failure must be kept, got %v", at)
	}
	n.Reset()
	if _, failed := n.FailedAt(); failed {
		t.Error("reset node must be alive")
	}
}

func TestClaimDeviceSerializes(t *testing.T) {
	n := NewNode("n0", XeonModel(), AlveoU55C())
	s1, e1, ok, err := n.ClaimDeviceAt(0, 1.0, 2.0)
	if err != nil || !ok || s1 != 1.0 || e1 != 3.0 {
		t.Fatalf("first claim: [%v,%v] %v %v", s1, e1, ok, err)
	}
	// Overlapping claim queues behind the first.
	s2, e2, ok, err := n.ClaimDeviceAt(0, 2.0, 1.0)
	if err != nil || !ok || s2 != 3.0 || e2 != 4.0 {
		t.Fatalf("second claim must queue: [%v,%v] %v %v", s2, e2, ok, err)
	}
	// A zero-length claim reserves nothing: its granted start reads the
	// device's free time.
	if free, _, ok, err := n.ClaimDeviceAt(0, 0, 0); err != nil || !ok || free != 4.0 {
		t.Errorf("device free at %v (ok=%v err=%v), want 4", free, ok, err)
	}
	if _, _, _, err := n.ClaimDeviceAt(1, 0, 1); err == nil {
		t.Error("claiming a missing device must fail")
	}
	// A claim that would queue past a detach makes no reservation.
	if _, err := n.SetDeviceOffline(0, true, 3.5); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := n.ClaimDeviceAt(0, 2.0, 1.0); err != nil || ok {
		t.Fatalf("claim queuing past the detach must refuse: ok=%v err=%v", ok, err)
	}
	// Reattached from the old frontier, the device is free at 4 again: the
	// refused claim (it would have run 4–5) left no phantom window.
	if _, err := n.SetDeviceOffline(0, false, 4.0); err != nil {
		t.Fatal(err)
	}
	if free, _, ok, err := n.ClaimDeviceAt(0, 0, 0); err != nil || !ok || free != 4.0 {
		t.Errorf("refused claim must leave no phantom window, free=%v ok=%v err=%v", free, ok, err)
	}
}

// TestClaimDeviceRaceSafety claims one device from 32 goroutines that keep
// the node's ownership rule: a lock standing in for the serving front's
// serializes their calls, and the node itself takes none. The unit claims,
// all made at 0, must get disjoint windows that tile [0, 32].
func TestClaimDeviceRaceSafety(t *testing.T) {
	n := NewNode("n0", XeonModel(), AlveoU55C())
	var (
		front sync.Mutex
		wg    sync.WaitGroup
		ends  = make([]float64, 32)
	)
	for i := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			front.Lock()
			s, e, ok, err := n.ClaimDeviceAt(0, 0, 1.0)
			front.Unlock()
			if err != nil || !ok || e != s+1.0 {
				t.Errorf("unit claim %d: [%v,%v] ok=%v err=%v", i, s, e, ok, err)
			}
			ends[i] = e
		}()
	}
	wg.Wait()
	sort.Float64s(ends)
	for i, e := range ends {
		if e != float64(i+1) {
			t.Fatalf("32 serialized unit claims must end at 1..32, got %v", ends)
		}
	}
}

func TestBatchTransferSeconds(t *testing.T) {
	c := NewCluster(NewNode("a", XeonModel()), NewNode("b", XeonModel()))
	bytes := int64(1 << 20)
	single := c.Network.TransferSeconds(bytes)
	batched := c.BatchTransferSeconds("a", "b", 4*bytes, 4)
	perDep := 4 * single
	if batched >= perDep {
		t.Errorf("batched transfer (%g) must beat 4 separate transfers (%g)", batched, perDep)
	}
	if got := c.BatchTransferSeconds("a", "a", bytes, 2); got != 0 {
		t.Errorf("same-node batch must be free, got %g", got)
	}
	if got := c.BatchTransferSeconds("a", "b", bytes, 0); got != 0 {
		t.Errorf("zero-dep batch must be free, got %g", got)
	}
}

func TestUnprogramFreesDeviceSlot(t *testing.T) {
	n := NewNode("n0", XeonModel(), AlveoU55C())
	bs := Bitstream{
		ID: "bs-x", Kernel: "k", Target: "alveo-u55c",
		Report: hls.Report{LatencyCycle: 1024, II: 1, IterLatency: 4,
			Resources: hls.Resources{LUT: 1000, FF: 1000}, ClockMHz: 300},
		Config:   SystemConfig{Replicas: 1, BusWidthBits: 512, Lanes: 4, PackedElements: 1, PLMBytes: 1 << 12},
		ElemBits: 32,
	}
	if _, err := n.Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Programmed(0); !ok {
		t.Fatal("bitstream should be loaded")
	}
	loaded, err := n.Unprogram(0, -1)
	if err != nil || !loaded {
		t.Fatalf("Unprogram = (%v, %v), want (true, nil)", loaded, err)
	}
	if _, ok := n.Programmed(0); ok {
		t.Fatal("bitstream should be gone after Unprogram")
	}
	loaded, err = n.Unprogram(0, -1)
	if err != nil || loaded {
		t.Fatalf("second Unprogram = (%v, %v), want (false, nil)", loaded, err)
	}
	if _, err := n.Unprogram(5, -1); err == nil {
		t.Fatal("out-of-range device accepted")
	}
}

// TestNodeResidencyQueries walks one two-card node through whole-device
// and PR-region loads and clears, checking Holding and Vacant after each:
// a whole-device image blocks every region of its card, a region kernel
// blocks the whole card, and clearing one region frees only it.
func TestNodeResidencyQueries(t *testing.T) {
	n := NewNode("n0", XeonModel(), AlveoU55C(), AlveoU55C())
	small := func(id string) Bitstream {
		bs := testBitstream(1, 4, 1, false)
		bs.ID = id
		return bs
	}
	type want struct {
		id          string
		dev, region int
		ok          bool
	}
	check := func(step string, holds []want, vacant map[[2]int]bool) {
		t.Helper()
		for _, w := range holds {
			dev, region, ok := n.Holding(w.id)
			if ok != w.ok || (ok && (dev != w.dev || region != w.region)) {
				t.Errorf("%s: Holding(%q) = dev%d r%d %v, want dev%d r%d %v", step, w.id, dev, region, ok, w.dev, w.region, w.ok)
			}
		}
		for dev := range n.Devices {
			for region := -1; region < n.Devices[dev].Regions(); region++ {
				if got, w := n.Vacant(dev, region), vacant[[2]int{dev, region}]; got != w {
					t.Errorf("%s: Vacant(%d, %d) = %v, want %v", step, dev, region, got, w)
				}
			}
		}
	}
	free := func(except ...[2]int) map[[2]int]bool {
		m := map[[2]int]bool{}
		for dev := range 2 {
			for region := -1; region < 4; region++ {
				m[[2]int{dev, region}] = true
			}
		}
		for _, k := range except {
			m[k] = false
		}
		return m
	}
	check("blank", []want{{id: "a"}, {id: ""}}, free())

	if _, err := n.Program(0, -1, small("a")); err != nil {
		t.Fatal(err)
	}
	check("whole a", []want{{"a", 0, -1, true}},
		free([2]int{0, -1}, [2]int{0, 0}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}))

	if _, err := n.Program(1, 2, small("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Program(1, 0, small("c")); err != nil {
		t.Fatal(err)
	}
	check("regions b, c", []want{{"a", 0, -1, true}, {"b", 1, 2, true}, {"c", 1, 0, true}},
		free([2]int{0, -1}, [2]int{0, 0}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3},
			[2]int{1, -1}, [2]int{1, 0}, [2]int{1, 2}))

	// A region load displaces the whole-device image of its card.
	if _, err := n.Program(0, 3, small("d")); err != nil {
		t.Fatal(err)
	}
	check("region d over a", []want{{id: "a"}, {"d", 0, 3, true}},
		free([2]int{0, -1}, [2]int{0, 3}, [2]int{1, -1}, [2]int{1, 0}, [2]int{1, 2}))

	if was, err := n.Unprogram(1, 2); err != nil || !was {
		t.Fatalf("Unprogram(1, 2) = %v, %v; want true", was, err)
	}
	if was, err := n.Unprogram(1, 2); err != nil || was {
		t.Fatalf("second Unprogram(1, 2) = %v, %v; want false", was, err)
	}
	if _, err := n.Unprogram(1, 4); err == nil {
		t.Error("Unprogram of PR region 4 of a 4-region card accepted")
	}
	check("clear b", []want{{id: "b"}, {"c", 1, 0, true}},
		free([2]int{0, -1}, [2]int{0, 3}, [2]int{1, -1}, [2]int{1, 0}))

	// A whole-device image displaces every region of its card, and
	// Unprogram clears them all.
	if _, err := n.Program(1, -1, small("e")); err != nil {
		t.Fatal(err)
	}
	check("whole e over c", []want{{id: "c"}, {"e", 1, -1, true}},
		free([2]int{0, -1}, [2]int{0, 3}, [2]int{1, -1}, [2]int{1, 0}, [2]int{1, 1}, [2]int{1, 2}, [2]int{1, 3}))
	if _, err := n.Unprogram(0, -1); err != nil {
		t.Fatal(err)
	}
	check("unprogram 0", []want{{id: "d"}, {"e", 1, -1, true}},
		free([2]int{1, -1}, [2]int{1, 0}, [2]int{1, 1}, [2]int{1, 2}, [2]int{1, 3}))

	if n.Vacant(2, -1) || n.Vacant(0, 4) {
		t.Error("an out-of-range slot reads vacant")
	}
	if _, err := n.Program(0, 0, small("")); err == nil {
		t.Error("a region kernel without an ID was accepted")
	}
}

// TestStagingCostAndSlot: StagingCost is the whole-device or the
// region-sized image and reconfiguration, and Program charges its
// seconds; Fit names the slot a footprint takes vacancy aside, and Slot
// the vacant one: the first free PR region for a region-sized kernel with
// partial on, otherwise the whole device if it is vacant.
func TestStagingCostAndSlot(t *testing.T) {
	n := NewNode("n0", XeonModel(), AlveoU55C())
	d := n.Devices[0]
	if b, s := d.StagingCost(-1); b != d.ConfigBytes() || s != d.ReconfigSeconds() {
		t.Errorf("StagingCost(-1) = %d B, %g s; want the whole-device %d B, %g s", b, s, d.ConfigBytes(), d.ReconfigSeconds())
	}
	if b, s := d.StagingCost(2); b != d.ConfigBytes()/4 || s != d.ReconfigSeconds()/4 {
		t.Errorf("StagingCost(2) = %d B, %g s; want a quarter of the whole-device %d B, %g s", b, s, d.ConfigBytes(), d.ReconfigSeconds())
	}
	small := func(id string) Bitstream {
		bs := testBitstream(1, 4, 1, false)
		bs.ID = id
		return bs
	}
	big, huge := testBitstream(40, 4, 1, false), testBitstream(200, 4, 1, false)
	for _, c := range []struct {
		bs      Bitstream
		partial bool
		region  int
		ok      bool
	}{
		{small("s"), true, 0, true}, {small("s"), false, -1, true},
		{big, true, -1, true}, {big, false, -1, true},
		{huge, true, -1, false}, {huge, false, -1, false},
	} {
		if region, ok := d.Fit(c.bs.TotalResources(), c.partial); region != c.region || ok != c.ok {
			t.Errorf("Fit(%d LUT, partial %v) = %d, %v; want %d, %v",
				c.bs.TotalResources().LUT, c.partial, region, ok, c.region, c.ok)
		}
	}

	slot := func(step string, bs Bitstream, partial bool, want int, wantOK bool) {
		t.Helper()
		if region, ok := n.Slot(0, bs.TotalResources(), partial); region != want || ok != wantOK {
			t.Errorf("%s: Slot(partial %v) = %d, %v; want %d, %v", step, partial, region, ok, want, wantOK)
		}
	}
	slot("blank", small("s"), true, 0, true)
	slot("blank", big, true, -1, true)
	slot("blank", huge, true, -1, false)
	for r, id := range []string{"a", "b"} {
		dt, err := n.Program(0, r, small(id))
		if _, want := d.StagingCost(r); err != nil || dt != want {
			t.Fatalf("Program(0, %d) = %g, %v; want %g", r, dt, err, want)
		}
	}
	slot("regions 0, 1", small("s"), true, 2, true)
	slot("regions 0, 1", small("s"), false, -1, false)
	slot("regions 0, 1", big, true, -1, false)
	for r, id := range []string{"c", "d"} {
		if _, err := n.Program(0, r+2, small(id)); err != nil {
			t.Fatal(err)
		}
	}
	slot("regions full", small("s"), true, -1, false)
	if _, err := n.Unprogram(0, -1); err != nil {
		t.Fatal(err)
	}
	dt, err := n.Program(0, -1, big)
	if _, want := d.StagingCost(-1); err != nil || dt != want {
		t.Fatalf("Program(0, -1) = %g, %v; want %g", dt, err, want)
	}
	slot("whole image", small("s"), true, -1, false)
	slot("whole image", big, false, -1, false)
	if _, err := n.Program(0, -2, small("e")); err == nil {
		t.Error("Program of region -2 was accepted")
	}
	if _, ok := n.Slot(1, big.TotalResources(), false); ok {
		t.Error("Slot on a device the node does not have reads ok")
	}
}
