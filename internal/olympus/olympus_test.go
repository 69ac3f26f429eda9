package olympus

import (
	"strings"
	"testing"

	"everest/internal/base2"
	"everest/internal/hls"
	"everest/internal/platform"
)

func streamKernel() hls.Kernel {
	return hls.Kernel{
		Name: "stream",
		Nest: hls.LoopNest{
			TripCounts: []int{1 << 20},
			Body:       hls.OpMix{Adds: 2, Muls: 2, Loads: 2, Stores: 1},
		},
		Format: base2.Float32{},
	}
}

func testBuffers() []Buffer {
	return []Buffer{
		{Bytes: 1 << 16, Phase: 0}, // in
		{Bytes: 1 << 16, Phase: 0}, // tmp
		{Bytes: 1 << 16, Phase: 1}, // out
	}
}

func TestPlanPLM(t *testing.T) {
	bufs := testBuffers()
	if got := PlanPLM(bufs, false); got != 3<<16 {
		t.Errorf("unshared PLM = %d, want %d", got, 3<<16)
	}
	if got := PlanPLM(bufs, true); got != 2<<16 {
		t.Errorf("shared PLM = %d, want %d (max phase)", got, 2<<16)
	}
	if PlanPLM(nil, true) != 0 {
		t.Error("empty buffer list must be 0")
	}
}

func TestGenerateNaive(t *testing.T) {
	d, err := Generate(streamKernel(), hls.VitisBackend{}, platform.AlveoU55C(), testBuffers(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Bitstream.Config
	if cfg.Replicas != 1 || cfg.PackedElements != 1 || cfg.DoubleBuffered {
		t.Errorf("naive config wrong: %+v", cfg)
	}
	if cfg.PLMBytes != 3<<16 {
		t.Errorf("naive PLM = %d, want unshared sum", cfg.PLMBytes)
	}
	if len(d.HostCode) == 0 {
		t.Error("host driver code must be generated")
	}
}

func TestGenerateReplication(t *testing.T) {
	opt := Options{Replicate: true, MaxReplicas: 8, SharePLM: true}
	d, err := Generate(streamKernel(), hls.VitisBackend{}, platform.AlveoU55C(), testBuffers(), opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Bitstream.Config
	if cfg.Replicas < 2 {
		t.Errorf("replication should fit more than 1 instance, got %d", cfg.Replicas)
	}
	if cfg.Lanes != cfg.Replicas {
		t.Errorf("each replica should get a lane: lanes=%d replicas=%d", cfg.Lanes, cfg.Replicas)
	}
	if !d.Bitstream.TotalResources().FitsIn(platform.AlveoU55C().Capacity) {
		t.Error("generated system must fit the device")
	}
}

func TestGeneratePacking(t *testing.T) {
	opt := Options{PackData: true}
	d, err := Generate(streamKernel(), hls.VitisBackend{}, platform.AlveoU55C(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	// f32 elements on a 256-bit HBM port: 8 per beat.
	if got := d.Bitstream.Config.PackedElements; got != 8 {
		t.Errorf("packed elements = %d, want 8", got)
	}
}

func TestGenerateRejectsOversized(t *testing.T) {
	huge := streamKernel()
	huge.Nest.Body.Special = 500 // enormous datapath
	_, err := Generate(huge, hls.VitisBackend{}, platform.CloudFPGA(), nil, Options{})
	if err == nil {
		t.Error("oversized kernel must fail generation")
	}
}

func TestAblationLadderImprovesThroughput(t *testing.T) {
	// The E3 experiment in miniature: each ladder step must not regress,
	// and the full ladder must deliver a clear win over naive.
	dev := platform.AlveoU55C()
	wl := platform.Workload{BytesIn: 1 << 28, BytesOut: 1 << 28, Batches: 8}
	var prev float64
	var first, last float64
	for i, step := range AblationLadder(8) {
		d, err := Generate(streamKernel(), hls.VitisBackend{}, dev, testBuffers(), step.Opt)
		if err != nil {
			t.Fatalf("%s: %v", step.Label, err)
		}
		tl, err := platform.Execute(dev, d.Bitstream, wl)
		if err != nil {
			t.Fatalf("%s: %v", step.Label, err)
		}
		thr := platform.Throughput(wl, tl)
		if i == 0 {
			first = thr
		}
		last = thr
		if i > 0 && thr < prev*0.99 {
			t.Errorf("step %s regressed throughput: %.3g < %.3g", step.Label, thr, prev)
		}
		prev = thr
	}
	if last < first*2 {
		t.Errorf("full ladder speedup %.2fx, want >= 2x", last/first)
	}
}

func TestEmitModule(t *testing.T) {
	opt := Options{Replicate: true, MaxReplicas: 4, SharePLM: true, DoubleBuffer: true}
	d, err := Generate(streamKernel(), hls.BambuBackend{}, platform.AlveoU55C(), testBuffers(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := EmitModule(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CountOps("olympus.kernel_inst"); got != d.Bitstream.Config.Replicas {
		t.Errorf("kernel_inst count %d, want %d", got, d.Bitstream.Config.Replicas)
	}
	if m.CountOps("olympus.bus") != 1 || m.CountOps("olympus.plm") != 1 {
		t.Error("bus/plm ops missing")
	}
	text := m.String()
	if !strings.Contains(text, "olympus.system") {
		t.Error("printed module missing olympus.system")
	}
}

func TestHostDriverShape(t *testing.T) {
	opt := Options{Replicate: true, MaxReplicas: 2, DoubleBuffer: true}
	d, err := Generate(streamKernel(), hls.VitisBackend{}, platform.AlveoU55C(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	code := strings.Join(d.HostCode, "\n")
	if !strings.Contains(code, "load_xclbin") {
		t.Error("driver must load the bitstream")
	}
	if !strings.Contains(code, "double-buffered") {
		t.Error("driver must note double buffering")
	}
	if !strings.Contains(code, "run0.wait()") {
		t.Error("driver must wait for kernels")
	}
}

func TestReserveFabricShrinksReplicas(t *testing.T) {
	base := Options{Replicate: true, MaxReplicas: 8}
	reserved := Options{Replicate: true, MaxReplicas: 8, ReserveFabric: 0.9}
	d1, err := Generate(streamKernel(), hls.VitisBackend{}, platform.AlveoU55C(), nil, base)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(streamKernel(), hls.VitisBackend{}, platform.AlveoU55C(), nil, reserved)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Bitstream.Config.Replicas > d1.Bitstream.Config.Replicas {
		t.Error("reserving fabric must not increase replicas")
	}
}
