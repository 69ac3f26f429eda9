// Package platform models the EVEREST target systems (paper §III): PCIe-
// attached AMD Alveo cards with HBM and the Xilinx Runtime (XRT), and IBM
// cloudFPGA network-attached FPGAs on a 10 Gbps TCP/UDP fabric.
//
// Real hardware is replaced by calibrated analytical models (substitution
// table in DESIGN.md): device resource capacities and memory/link bandwidth
// numbers follow the boards' public data sheets, and execution time is
// derived from the HLS report plus the memory system model. All time is
// modelled (seconds as float64), never wall clock, so experiments are
// deterministic.
package platform

import (
	"fmt"

	"everest/internal/hls"
)

// Attachment distinguishes how a device reaches its host.
type Attachment int

// Attachment kinds.
const (
	// PCIeAttached devices (Alveo) transfer via the host PCIe link.
	PCIeAttached Attachment = iota
	// NetworkAttached devices (cloudFPGA) are reached over TCP/UDP and have
	// no local host (disaggregated).
	NetworkAttached
)

// MemorySpec describes one device memory system.
type MemorySpec struct {
	BandwidthGBs  float64 // aggregate peak bandwidth, GB/s
	PortWidthBits int     // AXI port width per channel
}

// LinkSpec describes a host or network link.
type LinkSpec struct {
	BandwidthGBs float64 // effective payload bandwidth, GB/s
	LatencyUs    float64 // one-way latency
}

// TransferSeconds returns the modelled time to move n bytes over the link.
func (l LinkSpec) TransferSeconds(n int64) float64 {
	if n <= 0 {
		return l.LatencyUs * 1e-6
	}
	return l.LatencyUs*1e-6 + float64(n)/(l.BandwidthGBs*1e9)
}

// Device is one FPGA card model.
type Device struct {
	Name       string
	Attachment Attachment
	Capacity   hls.Resources
	Memory     MemorySpec
	Host       LinkSpec // PCIe link (PCIeAttached) or network link (NetworkAttached)
	FabricMHz  float64  // achievable fabric clock ceiling
	// PRRegions is the number of partial-reconfiguration region slots the
	// shell floorplan exposes (0 or 1 means whole-device configuration
	// only). Each region holds one kernel bitstream and reconfigures
	// independently of its neighbours, which is what lets one card keep
	// several streaming kernels resident and swap only the one that
	// changes.
	PRRegions int
}

// ReconfigSeconds is the modelled bitstream configuration latency of the
// device: full-device configuration takes O(100ms) on PCIe-attached
// cards; network-attached cloudFPGA nodes use faster partial
// reconfiguration (Ringlein FPL'19). StagingCost is its one reader.
func (d *Device) ReconfigSeconds() float64 {
	if d.Attachment == NetworkAttached {
		return 0.040
	}
	return 0.120
}

// Regions returns the number of usable PR region slots (at least 1: a
// device without a PR floorplan is one whole-device "region").
func (d *Device) Regions() int {
	if d.PRRegions < 2 {
		return 1
	}
	return d.PRRegions
}

// RegionCapacity returns the resource budget of one PR region: the fabric
// divided evenly across the floorplanned regions. A kernel that does not
// fit a region can still be deployed whole-device (displacing every
// resident region).
func (d *Device) RegionCapacity() hls.Resources {
	r := d.Regions()
	return hls.Resources{
		LUT: d.Capacity.LUT / r, FF: d.Capacity.FF / r,
		DSP: d.Capacity.DSP / r, BRAM: d.Capacity.BRAM / r,
	}
}

// ConfigBytes models the whole-device configuration image size: the frame
// count scales with fabric size (~16 bytes of configuration per LUT),
// which puts an Alveo xclbin in the tens of megabytes and a cloudFPGA
// partial image a quarter of that. StagingCost is its one reader.
func (d *Device) ConfigBytes() int64 {
	return int64(d.Capacity.LUT) * 16
}

// StagingCost is what staging one slot of the device costs: the
// configuration image shipped to it and the reconfiguration latency.
// Region -1 is the whole device (ConfigBytes, ReconfigSeconds). A PR
// region (region >= 0) takes its share of both: reconfiguration streams
// configuration frames, so image and latency scale with the region's
// slice of the fabric. It is the one deploy price: Node.Program charges
// its seconds, and every deployment tier sends its bytes over the tier's
// own link (registry fabric, cluster network or WAN).
func (d *Device) StagingCost(region int) (bytes int64, seconds float64) {
	if region >= 0 {
		return d.ConfigBytes() / int64(d.Regions()), d.ReconfigSeconds() / float64(d.Regions())
	}
	return d.ConfigBytes(), d.ReconfigSeconds()
}

// Fit names the slot a kernel of footprint need takes on the device,
// vacancy aside: PR region 0 when partial is on and need fits a region,
// else the whole device (-1); ok=false when need does not fit the device.
func (d *Device) Fit(need hls.Resources, partial bool) (region int, ok bool) {
	if partial && need.FitsIn(d.RegionCapacity()) {
		return 0, true
	}
	return -1, need.FitsIn(d.Capacity)
}

// AlveoU55C returns the model of an AMD Alveo U55C: HBM2 card used by the
// paper's PTDR and map-matching deployments (§VIII).
func AlveoU55C() *Device {
	return &Device{
		Name:       "alveo-u55c",
		Attachment: PCIeAttached,
		Capacity:   hls.Resources{LUT: 1303680, FF: 2607360, DSP: 9024, BRAM: 4032},
		Memory:     MemorySpec{BandwidthGBs: 460, PortWidthBits: 256}, // 16 GiB HBM2, 32 pseudo-channels
		Host:       LinkSpec{BandwidthGBs: 12, LatencyUs: 5},          // PCIe 3.0 x16
		FabricMHz:  450,
		PRRegions:  4,
	}
}

// AlveoU280 returns the model of an AMD Alveo U280 (HBM2 + DDR4).
func AlveoU280() *Device {
	return &Device{
		Name:       "alveo-u280",
		Attachment: PCIeAttached,
		Capacity:   hls.Resources{LUT: 1304000, FF: 2607000, DSP: 9024, BRAM: 4032},
		Memory:     MemorySpec{BandwidthGBs: 460, PortWidthBits: 256}, // 8 GiB HBM2, 32 pseudo-channels
		Host:       LinkSpec{BandwidthGBs: 14, LatencyUs: 4},          // PCIe 4.0 x8
		FabricMHz:  450,
		PRRegions:  4,
	}
}

// CloudFPGA returns the model of an IBM cloudFPGA node (Ringlein et al.,
// FPL 2019): a standalone Kintex-class FPGA attached directly to the data
// center network with a 10 Gbps TCP/UDP stack.
func CloudFPGA() *Device {
	return &Device{
		Name:       "cloudfpga-ku060",
		Attachment: NetworkAttached,
		Capacity:   hls.Resources{LUT: 331680, FF: 663360, DSP: 2760, BRAM: 2160},
		Memory:     MemorySpec{BandwidthGBs: 38, PortWidthBits: 512}, // 8 GiB DDR4, 2 channels
		Host:       LinkSpec{BandwidthGBs: 1.1, LatencyUs: 25},       // 10 Gbps TCP
		FabricMHz:  322,
		PRRegions:  2,
	}
}

// DeviceByName resolves a catalog device.
func DeviceByName(name string) (*Device, error) {
	switch name {
	case "alveo-u55c", "u55c":
		return AlveoU55C(), nil
	case "alveo-u280", "u280":
		return AlveoU280(), nil
	case "cloudfpga", "cloudfpga-ku060":
		return CloudFPGA(), nil
	default:
		return nil, fmt.Errorf("platform: unknown device %q", name)
	}
}

// CPUModel is the software baseline executor: a host core that retires a
// bounded number of floating-point operations per second. Used for the
// CPU-vs-FPGA experiments (E9, E10).
type CPUModel struct {
	Name             string
	GFLOPs           float64 // sustained scalar GFLOP/s per core
	Cores            int
	MemBWGBs         float64
	LaunchOverheadUs float64
}

// XeonModel returns a model of the paper's Intel Xeon host nodes.
func XeonModel() CPUModel {
	return CPUModel{Name: "xeon-gold", GFLOPs: 3.2, Cores: 16, MemBWGBs: 80, LaunchOverheadUs: 1}
}

// EPYCModel returns a model of the paper's AMD EPYC host nodes.
func EPYCModel() CPUModel {
	return CPUModel{Name: "epyc", GFLOPs: 3.0, Cores: 32, MemBWGBs: 120, LaunchOverheadUs: 1}
}

// TimeSeconds models running `flops` floating-point operations touching
// `bytes` of memory on n cores (n <= Cores; 0 means all).
func (c CPUModel) TimeSeconds(flops float64, bytes int64, n int) float64 {
	if n <= 0 || n > c.Cores {
		n = c.Cores
	}
	compute := flops / (c.GFLOPs * 1e9 * float64(n))
	mem := float64(bytes) / (c.MemBWGBs * 1e9)
	t := compute
	if mem > t {
		t = mem
	}
	return c.LaunchOverheadUs*1e-6 + t
}
