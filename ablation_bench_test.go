package everest_test

import (
	"testing"

	"everest/internal/base2"
	"everest/internal/hls"
	"everest/internal/olympus"
	"everest/internal/platform"
)

// Ablation benches for the design choices called out in DESIGN.md §6.

func streamBitstream(b *testing.B, dev *platform.Device, opt olympus.Options) platform.Bitstream {
	b.Helper()
	k := hls.Kernel{
		Name: "stream",
		Nest: hls.LoopNest{TripCounts: []int{1 << 18},
			Body: hls.OpMix{Adds: 2, Muls: 2, Loads: 2, Stores: 1}},
		Format: base2.Float32{},
	}
	d, err := olympus.Generate(k, hls.VitisBackend{}, dev, nil, opt)
	if err != nil {
		b.Fatal(err)
	}
	return d.Bitstream
}

// computeBitstream builds a compute-bound kernel (long trip count, small
// payload) so replication gains are visible.
func computeBitstream(b *testing.B, dev *platform.Device, opt olympus.Options) platform.Bitstream {
	b.Helper()
	k := hls.Kernel{
		Name: "mc",
		Nest: hls.LoopNest{TripCounts: []int{1 << 22},
			Body: hls.OpMix{Adds: 2, Muls: 2, Special: 1, Loads: 1}},
		Format: base2.Float32{},
	}
	d, err := olympus.Generate(k, hls.VitisBackend{}, dev, nil, opt)
	if err != nil {
		b.Fatal(err)
	}
	return d.Bitstream
}

// BenchmarkAblation_LanesVsWideBus — DESIGN.md §6.1: replicated kernels on
// lanes versus one shared wide bus, on a compute-bound kernel.
func BenchmarkAblation_LanesVsWideBus(b *testing.B) {
	dev := platform.AlveoU55C()
	wl := platform.Workload{BytesIn: 1 << 22, BytesOut: 1 << 22, Batches: 4}
	lanes := computeBitstream(b, dev, olympus.Options{Replicate: true, MaxReplicas: 8, PackData: true, DoubleBuffer: true})
	single := computeBitstream(b, dev, olympus.Options{PackData: true, DoubleBuffer: true})
	var thrLanes, thrSingle float64
	for i := 0; i < b.N; i++ {
		tl1, err := platform.Execute(dev, lanes, wl)
		if err != nil {
			b.Fatal(err)
		}
		tl2, err := platform.Execute(dev, single, wl)
		if err != nil {
			b.Fatal(err)
		}
		thrLanes = platform.Throughput(wl, tl1) / 1e9
		thrSingle = platform.Throughput(wl, tl2) / 1e9
	}
	b.ReportMetric(thrLanes, "lanes_GBs")
	b.ReportMetric(thrSingle, "single_GBs")
	b.ReportMetric(thrLanes/thrSingle, "lane_gain")
}

// BenchmarkAblation_DoubleBufferBatches — DESIGN.md §6.2: overlap factor
// versus batch count.
func BenchmarkAblation_DoubleBufferBatches(b *testing.B) {
	dev := platform.AlveoU55C()
	dbl := streamBitstream(b, dev, olympus.Options{DoubleBuffer: true, PackData: true})
	seq := streamBitstream(b, dev, olympus.Options{PackData: true})
	var gain16 float64
	for i := 0; i < b.N; i++ {
		wl := platform.Workload{BytesIn: 1 << 27, BytesOut: 1 << 27, Batches: 16}
		t1, err := platform.Execute(dev, dbl, wl)
		if err != nil {
			b.Fatal(err)
		}
		t2, err := platform.Execute(dev, seq, wl)
		if err != nil {
			b.Fatal(err)
		}
		gain16 = t2.Total / t1.Total
	}
	b.ReportMetric(gain16, "overlap_gain_16batches")
}

// BenchmarkAblation_AttachmentCrossover — DESIGN.md §6.7: PCIe-attached vs
// network-attached FPGA as the compute-per-byte ratio grows.
func BenchmarkAblation_AttachmentCrossover(b *testing.B) {
	u55c := platform.AlveoU55C()
	cloud := platform.CloudFPGA()
	opt := olympus.Options{Replicate: true, MaxReplicas: 4, PackData: true, DoubleBuffer: true}
	bsPcie := streamBitstream(b, u55c, opt)
	bsCloud := streamBitstream(b, cloud, opt)
	var ratioSmall, ratioLarge float64
	for i := 0; i < b.N; i++ {
		// Transfer-heavy: many bytes per unit compute.
		wlT := platform.Workload{BytesIn: 1 << 28, BytesOut: 1 << 28, Batches: 4}
		p1, err := platform.Execute(u55c, bsPcie, wlT)
		if err != nil {
			b.Fatal(err)
		}
		c1, err := platform.Execute(cloud, bsCloud, wlT)
		if err != nil {
			b.Fatal(err)
		}
		ratioSmall = c1.Total / p1.Total
		// Compute-heavy: few bytes.
		wlC := platform.Workload{BytesIn: 1 << 16, BytesOut: 1 << 12, Batches: 1}
		p2, err := platform.Execute(u55c, bsPcie, wlC)
		if err != nil {
			b.Fatal(err)
		}
		c2, err := platform.Execute(cloud, bsCloud, wlC)
		if err != nil {
			b.Fatal(err)
		}
		ratioLarge = c2.Total / p2.Total
	}
	// ratioSmall >> 1 (10G link hurts); ratioLarge -> ~1 (compute bound).
	b.ReportMetric(ratioSmall, "cloud_over_pcie_transfer_heavy")
	b.ReportMetric(ratioLarge, "cloud_over_pcie_compute_heavy")
}
