package platform

import (
	"fmt"
	"sort"

	"everest/internal/hls"
)

// Node is one computing node of the EVEREST cluster: a CPU plus attached
// FPGA devices, with an XRT-like programming interface.
//
// A node takes no lock of its own. Setup code touches it before the front
// that serves it (runtime.Engine, fleet.Fleet, stream.Engine) starts; from
// then on only that front touches it, inside its serving section (under
// the front's lock, for the fronts that take concurrent callers). A
// hot-plug subscriber on another goroutine reaches the node only through
// runtime.Engine.Apply, which writes it under the engine's serve lock.
type Node struct {
	Name    string
	CPU     CPUModel
	Devices []*Device

	slots    []deviceSlot // indexed like Devices
	failed   bool
	failedAt float64
	// Condition faults are timelines in modelled time, not booleans: a
	// task is priced by the state at its own modelled start, so a fault
	// stamped at time T never applies retroactively to work modelled
	// before T, whatever the wall-clock order executors observe events in
	// (same principle as failed/failedAt).
	slowHist []condChange // CPU load-factor change history
}

// deviceSlot is the per-device state of a node: the loaded whole-device
// image with the kernel timelines priced on it, the kernels resident in
// its PR regions, the reservation frontier, and the attachment history.
// It is the one record of what is programmed where: the serving tiers
// query it (Holding, Vacant, Slot) instead of keeping copies.
type deviceSlot struct {
	image  Bitstream
	loaded bool
	// regions holds the kernel resident in each PR region, allocated on
	// the first region load; a region whose image has no ID is vacant.
	regions []Bitstream
	// memo holds the timelines of the workloads last priced on image, in
	// insertion order; once full, memoNext names the entry to overwrite.
	// Every image change resets memoLen, so a timeline never outlives the
	// image it was priced on.
	memo      [kernelMemoSize]kernelMemo
	memoLen   int
	memoNext  int
	busyUntil float64      // modelled time the device frees up
	hist      []condChange // attachment change history
}

// kernelMemoSize bounds the timelines a device slot remembers: a loaded
// kernel serves a handful of distinct workload shapes.
const kernelMemoSize = 4

// kernelMemo is one priced workload.
type kernelMemo struct {
	wl Workload
	tl Timeline
}

// load replaces the slot's image (loaded=false clears it); the memo dies
// with the old image.
func (s *deviceSlot) load(bs Bitstream, loaded bool) {
	s.image, s.loaded = bs, loaded
	s.memoLen, s.memoNext = 0, 0
}

// condChange is one modelled-time transition of a node condition.
type condChange struct {
	at    float64
	value float64 // slowdown factor, or 0/1 for detached/attached
}

// NewNode builds a node.
func NewNode(name string, cpu CPUModel, devices ...*Device) *Node {
	return &Node{
		Name: name, CPU: cpu, Devices: devices,
		slots: make([]deviceSlot, len(devices)),
	}
}

// condAt returns the value of a condition history at modelled time t (the
// change with the greatest at <= t wins; def if none applies). Histories
// are time-sorted by construction (clampMonotonic), so the common query —
// at or past the frontier — is the last entry, and any other is a binary
// search for the last entry with at <= t: the newest wins ties because it
// was appended last.
func condAt(hist []condChange, t, def float64) float64 {
	n := len(hist)
	if n > 0 && hist[n-1].at <= t {
		return hist[n-1].value
	}
	if i := sort.Search(n, func(i int) bool { return !(hist[i].at <= t) }); i > 0 {
		return hist[i-1].value
	}
	return def
}

// clampMonotonic floors `at` to the history's latest transition time:
// transitions are state changes observed in order, so one stamped earlier
// than an already-recorded change (completion-count fault triggers see
// task-done times in report order, not modelled order) takes effect at the
// recorded frontier instead of rewriting the past — where condAt would
// never see it as the latest state. The invariant this maintains is what
// keeps histories sorted, so the last entry is the frontier.
func clampMonotonic(hist []condChange, at float64) float64 {
	if n := len(hist); n > 0 && hist[n-1].at > at {
		return hist[n-1].at
	}
	return at
}

// Program loads a kernel bitstream onto device idx (XRT xclLoadXclbin
// analogue) and returns the reconfiguration seconds of Device.StagingCost.
// Region -1 configures the whole device, displacing every PR region.
// Region >= 0 loads one PR region and leaves the others resident, so one
// card hosts several kernels; the kernel must fit the region's share of
// the fabric and needs an ID (what Holding finds it by), and it displaces
// a whole-device image (the shell the regions plug into) and the kernel
// the region held.
func (n *Node) Program(idx, region int, bs Bitstream) (float64, error) {
	if idx < 0 || idx >= len(n.Devices) {
		return 0, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	d := n.Devices[idx]
	s := &n.slots[idx]
	_, seconds := d.StagingCost(region)
	if region == -1 {
		if !bs.TotalResources().FitsIn(d.Capacity) {
			return 0, fmt.Errorf("platform: bitstream %q does not fit on %s", bs.ID, d.Name)
		}
		s.load(bs, true)
		clear(s.regions)
		return seconds, nil
	}
	if region < 0 || region >= d.Regions() {
		return 0, fmt.Errorf("platform: %s device %d has no PR region %d (regions: %d)",
			n.Name, idx, region, d.Regions())
	}
	if bs.ID == "" {
		return 0, fmt.Errorf("platform: a PR region kernel needs a bitstream ID")
	}
	if !bs.TotalResources().FitsIn(d.RegionCapacity()) {
		return 0, fmt.Errorf("platform: bitstream %q does not fit a PR region of %s (1/%d of the fabric)",
			bs.ID, d.Name, d.Regions())
	}
	s.load(Bitstream{}, false)
	if s.regions == nil {
		s.regions = make([]Bitstream, d.Regions())
	}
	s.regions[region] = bs
	return seconds, nil
}

// Unprogram clears PR region `region` of device idx, or with region -1
// the whole device, returning whether a kernel (for -1, a whole-device
// image) was loaded there. A cache-capacity eviction in a bitstream
// deployment tier uses this to free the victim's slot without disturbing
// its neighbours: the next task requesting the evicted bitstream on this
// node no longer finds it and must pay a redeploy (or fall back to
// software). Device reservations are untouched — work already claimed
// keeps its window.
func (n *Node) Unprogram(idx, region int) (bool, error) {
	if idx < 0 || idx >= len(n.Devices) {
		return false, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	if region >= n.Devices[idx].Regions() {
		return false, fmt.Errorf("platform: %s device %d has no PR region %d", n.Name, idx, region)
	}
	s := &n.slots[idx]
	if region >= 0 {
		loaded := region < len(s.regions) && s.regions[region].ID != ""
		if loaded {
			s.regions[region] = Bitstream{}
		}
		return loaded, nil
	}
	loaded := s.loaded
	s.load(Bitstream{}, false)
	// Freeing the device clears PR regions too: the whole fabric is blank.
	clear(s.regions)
	return loaded, nil
}

// Holding returns the device and PR region holding bitstream id (region -1
// for a whole-device image); ok=false when no device of the node holds it.
func (n *Node) Holding(id string) (dev, region int, ok bool) {
	if id == "" {
		return -1, -1, false
	}
	for i := range n.slots {
		s := &n.slots[i]
		if s.loaded && s.image.ID == id {
			return i, -1, true
		}
		for r := range s.regions {
			if s.regions[r].ID == id {
				return i, r, true
			}
		}
	}
	return -1, -1, false
}

// Vacant reports whether programming PR region `region` of device idx
// (region -1: the whole device) would displace no resident kernel. A
// whole-device image occupies every region, and a kernel in any region
// occupies the whole device.
func (n *Node) Vacant(idx, region int) bool {
	if idx < 0 || idx >= len(n.Devices) || region >= n.Devices[idx].Regions() {
		return false
	}
	s := &n.slots[idx]
	if s.loaded {
		return false
	}
	if region >= 0 {
		return region >= len(s.regions) || s.regions[region].ID == ""
	}
	for r := range s.regions {
		if s.regions[r].ID != "" {
			return false
		}
	}
	return true
}

// Slot names the vacant slot a kernel of footprint need takes on device
// idx: with partial on and a footprint that fits a PR region, the first
// vacant region; otherwise the whole device, if it is vacant. ok=false
// when there is no such slot. It is the one slot rule of every tier that
// deploys onto a node.
func (n *Node) Slot(idx int, need hls.Resources, partial bool) (region int, ok bool) {
	if idx < 0 || idx >= len(n.Devices) {
		return -1, false
	}
	region, ok = n.Devices[idx].Fit(need, partial)
	if !ok || region < 0 {
		return -1, ok && n.Vacant(idx, -1)
	}
	for r := range n.Devices[idx].Regions() {
		if n.Vacant(idx, r) {
			return r, true
		}
	}
	return -1, false
}

// Programmed returns the ID of the bitstream loaded on device idx.
func (n *Node) Programmed(idx int) (string, bool) {
	if idx < 0 || idx >= len(n.Devices) {
		return "", false
	}
	s := &n.slots[idx]
	return s.image.ID, s.loaded
}

// KernelTime prices workload wl on device idx when the device is attached
// at modelled time at and its loaded whole-device image is bitstreamID;
// ok=false otherwise, or when the image cannot run on the device. A
// negative at takes the design-time view, where attachment is ignored.
// A workload priced before on the same image is served from the slot's
// memo: the timeline is Execute's, computed once per image.
func (n *Node) KernelTime(idx int, bitstreamID string, wl Workload, at float64) (Timeline, bool) {
	if idx < 0 || idx >= len(n.Devices) {
		return Timeline{}, false
	}
	s := &n.slots[idx]
	if at >= 0 && condAt(s.hist, at, 1) == 0 {
		return Timeline{}, false
	}
	if !s.loaded || s.image.ID != bitstreamID {
		return Timeline{}, false
	}
	tl, err := n.kernelTime(idx, wl)
	return tl, err == nil
}

// kernelTime prices wl on device idx's loaded image through the slot's
// memo (image loaded). A failed pricing is not remembered: it depends on
// the image alone, and a valid registry never produces one.
func (n *Node) kernelTime(idx int, wl Workload) (Timeline, error) {
	s := &n.slots[idx]
	for i := 0; i < s.memoLen; i++ {
		if s.memo[i].wl == wl {
			return s.memo[i].tl, nil
		}
	}
	tl, err := Execute(n.Devices[idx], s.image, wl)
	if err != nil {
		return Timeline{}, err
	}
	if s.memoLen < kernelMemoSize {
		s.memo[s.memoLen] = kernelMemo{wl: wl, tl: tl}
		s.memoLen++
	} else {
		s.memo[s.memoNext] = kernelMemo{wl: wl, tl: tl}
		s.memoNext = (s.memoNext + 1) % kernelMemoSize
	}
	return tl, nil
}

// RunCPU models a software execution on n cores at the node's nominal
// (design-time) speed. Planners use it for estimates that deliberately
// ignore the current load.
func (n *Node) RunCPU(flops float64, bytes int64, cores int) float64 {
	return n.CPU.TimeSeconds(flops, bytes, cores)
}

// RunCPULiveAt models a software execution on n cores starting at modelled
// time `at`, under the load in effect then: the nominal time scaled by the
// slowdown factor. Executors pay this; whether a scheduler *predicts* it
// depends on whether it consults the monitors (the adaptive engine does,
// the static one does not).
func (n *Node) RunCPULiveAt(flops float64, bytes int64, cores int, at float64) float64 {
	return n.CPU.TimeSeconds(flops, bytes, cores) * n.SlowdownAt(at)
}

// SetSlowdown sets the node's CPU load multiplier from modelled time `at`
// onward (1 = nominal, 2 = every software execution takes twice as long).
// Factors below 1 clamp to 1: the model has no overclocking.
func (n *Node) SetSlowdown(factor, at float64) {
	if factor < 1 {
		factor = 1
	}
	n.slowHist = append(n.slowHist, condChange{at: clampMonotonic(n.slowHist, at), value: factor})
}

// SlowdownAt returns the CPU load multiplier in effect at modelled time t.
func (n *Node) SlowdownAt(t float64) float64 {
	return condAt(n.slowHist, t, 1)
}

// maxModelledTime queries a condition timeline's latest state.
const maxModelledTime = 1e300

// SetDeviceOffline marks device idx as detached (off=true) or reattached
// from modelled time `at` onward, reporting whether the latest state
// actually changed: a redundant write appends nothing. An offline
// device keeps its programmed bitstream — replugging a VF brings the
// accelerator back without reconfiguration — but cannot execute kernels
// while detached.
func (n *Node) SetDeviceOffline(idx int, off bool, at float64) (changed bool, err error) {
	if idx < 0 || idx >= len(n.Devices) {
		return false, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	v := 1.0
	if off {
		v = 0
	}
	s := &n.slots[idx]
	if condAt(s.hist, maxModelledTime, 1) == v {
		return false, nil
	}
	s.hist = append(s.hist, condChange{at: clampMonotonic(s.hist, at), value: v})
	return true, nil
}

// DeviceOnlineAt reports whether device idx is attached at modelled time t.
func (n *Node) DeviceOnlineAt(idx int, t float64) bool {
	if idx < 0 || idx >= len(n.Devices) {
		return false
	}
	return condAt(n.slots[idx].hist, t, 1) != 0
}

// DeviceOnline reports whether device idx is attached in the latest state.
func (n *Node) DeviceOnline(idx int) bool {
	return n.DeviceOnlineAt(idx, maxModelledTime)
}

// Reset returns the node to a fresh run's state, keeping what is
// programmed: no failure, every device idle at modelled time zero and
// attached, slowdown back to nominal. Engines call it when they take
// ownership of a cluster, so stale failures, claims and faults of a
// previous run do not leak into theirs.
func (n *Node) Reset() {
	n.failed, n.failedAt = false, 0
	n.slowHist = nil
	for i := range n.slots {
		n.slots[i].busyUntil = 0
		n.slots[i].hist = nil
	}
}

// ClaimDeviceAt reserves device idx from modelled time `at` for `dur`
// seconds and returns the actual [start, end] window. Claims serialize: if
// the device is still busy at `at`, the claim queues behind the current
// owner. The reservation is made only if the device is still attached at
// the granted start (otherwise ok=false and nothing is reserved) — so a
// claim that would queue past a detach never leaves a phantom busy window
// blocking work after a replug. This is the executor hook through which
// every workflow an engine serves shares one physical accelerator.
func (n *Node) ClaimDeviceAt(idx int, at, dur float64) (start, end float64, ok bool, err error) {
	if idx < 0 || idx >= len(n.Devices) {
		return 0, 0, false, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	s := &n.slots[idx]
	start = at
	if b := s.busyUntil; b > start {
		start = b
	}
	if condAt(s.hist, start, 1) == 0 {
		return 0, 0, false, nil
	}
	end = start + dur
	s.busyUntil = end
	return start, end, true, nil
}

// Fail marks the node as failed at modelled time t (monitor hook: the
// resource manager's failure detector calls this, executors consult
// FailedAt). Only the earliest failure time is kept.
func (n *Node) Fail(t float64) {
	if !n.failed || t < n.failedAt {
		n.failed = true
		n.failedAt = t
	}
}

// FailedAt reports whether the node has failed and, if so, when.
func (n *Node) FailedAt() (float64, bool) {
	return n.failedAt, n.failed
}

// Cluster is a set of nodes joined by a data-center network.
type Cluster struct {
	Nodes   []*Node
	Network LinkSpec
}

// NewCluster builds a cluster with a default 100 Gbps data-center fabric.
func NewCluster(nodes ...*Node) *Cluster {
	return &Cluster{
		Nodes:   nodes,
		Network: LinkSpec{Kind: "eth100g", BandwidthGBs: 11, LatencyUs: 3},
	}
}

// FindNode returns the node with the given name, or nil.
func (c *Cluster) FindNode(name string) *Node {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// BatchTransferSeconds models moving the coalesced outputs of `deps`
// dependencies from one node to another as a single bulk transfer: the link
// latency is paid once instead of once per dependency. This is the hook the
// concurrent engine uses to batch inter-node transfers; the per-dependency
// cost it avoids is (deps-1) extra latencies.
func (c *Cluster) BatchTransferSeconds(from, to string, totalBytes int64, deps int) float64 {
	if from == to || deps <= 0 {
		return 0
	}
	return c.Network.TransferSeconds(totalBytes)
}
