// Package olympus implements the EVEREST system-level hardware generation
// stage (paper §V-C; Soldavini et al., "Platform-Aware FPGA System
// Architecture Generation based on MLIR", arXiv:2309.12917).
//
// Starting from an HLS-compiled kernel and the FPGA platform description,
// Olympus builds the data-movement infrastructure around the kernel:
//
//   - private local memories (PLMs) with lifetime-based sharing
//     (Pilato et al., TCAD 2017 — paper ref [16]);
//   - double buffering and read/execute/write pipelining;
//   - kernel replication with the memory bus split into lanes so each
//     replica gets a private stream (paper ref [24]);
//   - data packing to fill every bus beat (Iris, paper ref [25]).
//
// The output is a platform.Bitstream: the architectural content a real flow
// would encode in the FPGA configuration, plus generated host driver calls.
package olympus

import (
	"fmt"

	"everest/internal/hls"
	"everest/internal/platform"
)

// Options selects which optimizations Generate applies. The zero value is
// the naive architecture (single instance, unpacked, sequential transfers):
// the E3 ablation baseline.
type Options struct {
	SharePLM      bool    // lifetime-based PLM sharing
	DoubleBuffer  bool    // overlap transfer and compute
	Replicate     bool    // instantiate as many replicas as fit
	MaxReplicas   int     // cap on replicas (0 = no cap)
	PackData      bool    // pack elements into full bus beats
	BusWidthBits  int     // memory bus width (0 = device port width)
	TargetII      int     // forwarded to HLS directives
	Unroll        int     // forwarded to HLS directives
	MemPorts      int     // PLM banking: concurrent ports the datapath sees (0 = 2)
	ReserveFabric float64 // fraction of the device kept free (0..1)
}

// Buffer describes one kernel buffer for PLM planning.
type Buffer struct {
	Bytes int64
	// Phase groups buffers by kernel phase; buffers in different phases
	// have disjoint lifetimes and can share storage when SharePLM is on.
	Phase int
}

// PlanPLM returns the PLM footprint: the sum of buffer sizes without
// sharing, or the maximum over phases with lifetime-based sharing.
func PlanPLM(buffers []Buffer, share bool) int64 {
	if len(buffers) == 0 {
		return 0
	}
	if !share {
		var sum int64
		for _, b := range buffers {
			sum += b.Bytes
		}
		return sum
	}
	perPhase := make(map[int]int64)
	for _, b := range buffers {
		perPhase[b.Phase] += b.Bytes
	}
	var max int64
	for _, v := range perPhase {
		if v > max {
			max = v
		}
	}
	return max
}

// Design is the result of system generation.
type Design struct {
	Bitstream platform.Bitstream
	HostCode  []string // generated driver call sequence
	FitUtil   float64  // diagnostic: utilization of the fitted design
}

// Generate builds the FPGA system architecture for a kernel on a device.
func Generate(k hls.Kernel, backend hls.Backend, dev *platform.Device, buffers []Buffer, opt Options) (*Design, error) {
	if dev == nil {
		return nil, fmt.Errorf("olympus: nil device")
	}
	busWidth := opt.BusWidthBits
	if busWidth <= 0 {
		busWidth = dev.Memory.PortWidthBits
	}
	elemBits := k.Format.Bits()
	if elemBits <= 0 {
		return nil, fmt.Errorf("olympus: kernel %q has no element width", k.Name)
	}

	plmBytes := PlanPLM(buffers, opt.SharePLM)
	k.BufferBytes = 0 // PLMs are accounted at the system level, not per instance

	dirs := hls.Directives{PipelineEnabled: true, TargetII: opt.TargetII, Unroll: opt.Unroll, MemPorts: opt.MemPorts}
	report, err := hls.Schedule(k, dirs, backend)
	if err != nil {
		return nil, fmt.Errorf("olympus: HLS failed: %w", err)
	}

	packed := 1
	if opt.PackData {
		packed = busWidth / elemBits
		if packed < 1 {
			packed = 1
		}
	}

	budget := dev.Capacity
	if opt.ReserveFabric > 0 && opt.ReserveFabric < 1 {
		budget = hls.Resources{
			LUT:  int(float64(budget.LUT) * (1 - opt.ReserveFabric)),
			FF:   int(float64(budget.FF) * (1 - opt.ReserveFabric)),
			DSP:  int(float64(budget.DSP) * (1 - opt.ReserveFabric)),
			BRAM: int(float64(budget.BRAM) * (1 - opt.ReserveFabric)),
		}
	}

	maxRep := 1
	if opt.Replicate {
		maxRep = busWidth / elemBits // one lane per replica at elem granularity
		if maxRep < 1 {
			maxRep = 1
		}
		if opt.MaxReplicas > 0 && maxRep > opt.MaxReplicas {
			maxRep = opt.MaxReplicas
		}
	}

	// Find the largest replica count that fits the budget.
	var bs platform.Bitstream
	for rep := maxRep; rep >= 1; rep-- {
		lanes := rep
		if busWidth%lanes != 0 {
			continue
		}
		cfg := platform.SystemConfig{
			Replicas:       rep,
			BusWidthBits:   busWidth,
			Lanes:          lanes,
			PackedElements: packed,
			DoubleBuffered: opt.DoubleBuffer,
			PLMBytes:       plmBytes,
			PLMShared:      opt.SharePLM,
		}
		cand := platform.Bitstream{
			ID:       fmt.Sprintf("%s@%s[r%d]", k.Name, dev.Name, rep),
			Kernel:   k.Name,
			Target:   dev.Name,
			Report:   report,
			Config:   cfg,
			ElemBits: elemBits,
		}
		if cand.TotalResources().FitsIn(budget) {
			bs = cand
			break
		}
	}
	if bs.ID == "" {
		return nil, fmt.Errorf("olympus: kernel %q does not fit on %s even unreplicated", k.Name, dev.Name)
	}

	d := &Design{
		Bitstream: bs,
		FitUtil:   bs.TotalResources().Utilization(dev.Capacity),
	}
	d.HostCode = hostDriver(bs)
	return d, nil
}

// hostDriver emits the driver call sequence Olympus generates for the host
// side (paper: "host code drivers to move data from host to device and
// initiate execution").
func hostDriver(bs platform.Bitstream) []string {
	calls := []string{
		fmt.Sprintf("xrt::device dev = xrt::device(%q)", bs.Target),
		fmt.Sprintf("auto uuid = dev.load_xclbin(%q)", bs.ID),
	}
	for r := 0; r < bs.Config.Replicas; r++ {
		calls = append(calls,
			fmt.Sprintf("auto krnl%d = xrt::kernel(dev, uuid, %q)", r, bs.Kernel),
			fmt.Sprintf("auto in%d = xrt::bo(dev, IN_BYTES/%d, krnl%d.group_id(0))", r, bs.Config.Replicas, r),
			fmt.Sprintf("auto out%d = xrt::bo(dev, OUT_BYTES/%d, krnl%d.group_id(1))", r, bs.Config.Replicas, r),
		)
	}
	if bs.Config.DoubleBuffered {
		calls = append(calls, "// double-buffered: sync(k+1) overlapped with run(k)")
	}
	for r := 0; r < bs.Config.Replicas; r++ {
		calls = append(calls,
			fmt.Sprintf("in%d.sync(XCL_BO_SYNC_BO_TO_DEVICE)", r),
			fmt.Sprintf("auto run%d = krnl%d(in%d, out%d)", r, r, r, r),
		)
	}
	for r := 0; r < bs.Config.Replicas; r++ {
		calls = append(calls,
			fmt.Sprintf("run%d.wait()", r),
			fmt.Sprintf("out%d.sync(XCL_BO_SYNC_BO_FROM_DEVICE)", r),
		)
	}
	return calls
}

// AblationStep names one step of the E3 ablation.
type AblationStep struct {
	Label string
	Opt   Options
}

// AblationLadder returns the cumulative optimization ladder of experiment
// E3: naive -> +PLM sharing -> +double buffering -> +replication/lanes ->
// +packing.
func AblationLadder(maxReplicas int) []AblationStep {
	return []AblationStep{
		{Label: "naive", Opt: Options{}},
		{Label: "+plm-sharing", Opt: Options{SharePLM: true}},
		{Label: "+double-buffer", Opt: Options{SharePLM: true, DoubleBuffer: true}},
		{Label: "+replicate-lanes", Opt: Options{SharePLM: true, DoubleBuffer: true, Replicate: true, MaxReplicas: maxReplicas}},
		{Label: "+packing", Opt: Options{SharePLM: true, DoubleBuffer: true, Replicate: true, MaxReplicas: maxReplicas, PackData: true}},
	}
}
