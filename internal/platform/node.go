package platform

import (
	"fmt"
	"sort"
	"sync"
)

// Node is one computing node of the EVEREST cluster: a CPU plus attached
// FPGA devices, with an XRT-like programming interface.
type Node struct {
	Name    string
	CPU     CPUModel
	Devices []*Device

	mu         sync.Mutex
	programmed map[int]Bitstream    // device index -> loaded whole-device bitstream
	regions    map[[2]int]Bitstream // (device index, PR region) -> loaded kernel
	busyUntil  map[int]float64      // device index -> modelled time it frees up
	failed     bool
	failedAt   float64
	// Condition faults are timelines in modelled time, not booleans: a
	// task is priced by the state at its own modelled start, so a fault
	// stamped at time T never applies retroactively to work modelled
	// before T, whatever the wall-clock order executors observe events in
	// (same principle as failed/failedAt).
	slowHist []condChange         // CPU load-factor change history
	devHist  map[int][]condChange // device index -> attachment change history
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
		programmed: make(map[int]Bitstream),
		regions:    make(map[[2]int]Bitstream),
		busyUntil:  make(map[int]float64),
		devHist:    make(map[int][]condChange),
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

// Program loads a bitstream onto device idx (XRT xclLoadXclbin analogue).
// Reprogramming takes modelled time returned as seconds.
func (n *Node) Program(idx int, bs Bitstream) (float64, error) {
	if idx < 0 || idx >= len(n.Devices) {
		return 0, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	if !bs.TotalResources().FitsIn(n.Devices[idx].Capacity) {
		return 0, fmt.Errorf("platform: bitstream %q does not fit on %s", bs.ID, n.Devices[idx].Name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.programmed[idx] = bs
	// A whole-device image rewrites the entire fabric, displacing every
	// kernel resident in a PR region.
	n.clearRegionsLocked(idx)
	return n.Devices[idx].ReconfigSeconds(), nil
}

// clearRegionsLocked drops every PR-region entry of device idx (n.mu held).
func (n *Node) clearRegionsLocked(idx int) {
	for r := 0; r < n.Devices[idx].Regions(); r++ {
		delete(n.regions, [2]int{idx, r})
	}
}

// ProgramRegion loads a kernel bitstream into one partial-reconfiguration
// region of device idx, leaving every other region resident — the streaming
// and fleet tiers use this so one card hosts several kernels and a stage
// change swaps only the region that changes. The kernel must fit the
// region's share of the fabric; the modelled latency returned is the
// region-sized reconfiguration time. A previously loaded whole-device image
// is displaced (its static shell is what the regions plug into).
func (n *Node) ProgramRegion(idx, region int, bs Bitstream) (float64, error) {
	if idx < 0 || idx >= len(n.Devices) {
		return 0, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	d := n.Devices[idx]
	if region < 0 || region >= d.Regions() {
		return 0, fmt.Errorf("platform: %s device %d has no PR region %d (regions: %d)",
			n.Name, idx, region, d.Regions())
	}
	if !bs.TotalResources().FitsIn(d.RegionCapacity()) {
		return 0, fmt.Errorf("platform: bitstream %q does not fit a PR region of %s (1/%d of the fabric)",
			bs.ID, d.Name, d.Regions())
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.programmed, idx)
	n.regions[[2]int{idx, region}] = bs
	return d.RegionReconfigSeconds(), nil
}

// UnprogramRegion clears one PR region of device idx, returning whether a
// kernel was resident there. Per-region cache evictions use this so the
// victim region frees without disturbing its neighbours.
func (n *Node) UnprogramRegion(idx, region int) (bool, error) {
	if idx < 0 || idx >= len(n.Devices) {
		return false, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	if region < 0 || region >= n.Devices[idx].Regions() {
		return false, fmt.Errorf("platform: %s device %d has no PR region %d", n.Name, idx, region)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	_, loaded := n.regions[[2]int{idx, region}]
	delete(n.regions, [2]int{idx, region})
	return loaded, nil
}

// RegionProgrammed returns the kernel resident in one PR region of device
// idx.
func (n *Node) RegionProgrammed(idx, region int) (Bitstream, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	bs, ok := n.regions[[2]int{idx, region}]
	return bs, ok
}

// ProgrammedRegions counts the kernels resident across device idx's PR
// regions.
func (n *Node) ProgrammedRegions(idx int) int {
	if idx < 0 || idx >= len(n.Devices) {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for r := 0; r < n.Devices[idx].Regions(); r++ {
		if _, ok := n.regions[[2]int{idx, r}]; ok {
			count++
		}
	}
	return count
}

// Unprogram clears the bitstream loaded on device idx, returning whether
// one was loaded. A cache-capacity eviction in a bitstream deployment tier
// uses this to free the slot: the next task requesting the evicted
// bitstream on this node no longer finds it and must pay a redeploy (or
// fall back to software). Device reservations are untouched — work already
// claimed keeps its window.
func (n *Node) Unprogram(idx int) (bool, error) {
	if idx < 0 || idx >= len(n.Devices) {
		return false, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	_, loaded := n.programmed[idx]
	delete(n.programmed, idx)
	// Freeing the device clears PR regions too: the whole fabric is blank.
	n.clearRegionsLocked(idx)
	return loaded, nil
}

// Programmed returns the loaded bitstream for device idx.
func (n *Node) Programmed(idx int) (Bitstream, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	bs, ok := n.programmed[idx]
	return bs, ok
}

// RunKernel executes the loaded bitstream with the workload, returning the
// timeline. The caller accounts the time on its own clock.
func (n *Node) RunKernel(idx int, wl Workload) (Timeline, error) {
	n.mu.Lock()
	bs, ok := n.programmed[idx]
	n.mu.Unlock()
	if !ok {
		return Timeline{}, fmt.Errorf("platform: device %d of %s is not programmed", idx, n.Name)
	}
	return Execute(n.Devices[idx], bs, wl)
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
	n.mu.Lock()
	defer n.mu.Unlock()
	n.slowHist = append(n.slowHist, condChange{at: clampMonotonic(n.slowHist, at), value: factor})
}

// SlowdownAt returns the CPU load multiplier in effect at modelled time t.
func (n *Node) SlowdownAt(t float64) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return condAt(n.slowHist, t, 1)
}

// Slowdown returns the most recently set CPU load multiplier.
func (n *Node) Slowdown() float64 {
	return n.SlowdownAt(maxModelledTime)
}

// maxModelledTime queries a condition timeline's latest state.
const maxModelledTime = 1e300

// SetDeviceOffline marks device idx as detached (off=true) or reattached
// from modelled time `at` onward, reporting whether the latest state
// actually changed — the check and the timeline append are one atomic
// step, so concurrent callers cannot both observe "changed". An offline
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
	n.mu.Lock()
	defer n.mu.Unlock()
	if condAt(n.devHist[idx], maxModelledTime, 1) == v {
		return false, nil
	}
	n.devHist[idx] = append(n.devHist[idx], condChange{at: clampMonotonic(n.devHist[idx], at), value: v})
	return true, nil
}

// DeviceOnlineAt reports whether device idx is attached at modelled time t.
func (n *Node) DeviceOnlineAt(idx int, t float64) bool {
	if idx < 0 || idx >= len(n.Devices) {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return condAt(n.devHist[idx], t, 1) != 0
}

// DeviceOnline reports whether device idx is attached in the latest state.
func (n *Node) DeviceOnline(idx int) bool {
	return n.DeviceOnlineAt(idx, maxModelledTime)
}

// ResetCondition clears load and attachment fault timelines (slowdown back
// to nominal, all devices online). Engines call it with Heal and
// ResetDeviceClaims when they take ownership of a cluster.
func (n *Node) ResetCondition() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.slowHist = nil
	for k := range n.devHist {
		delete(n.devHist, k)
	}
}

// ClaimDeviceAt reserves device idx from modelled time `at` for `dur`
// seconds and returns the actual [start, end] window. Claims serialize: if
// the device is still busy at `at`, the claim queues behind the current
// owner. The reservation is made only if the device is still attached at
// the granted start (otherwise ok=false and nothing is reserved) — so a
// claim that would queue past a detach never leaves a phantom busy window
// blocking work after a replug; the attachment check and the reservation
// are one atomic step. This is the executor hook that lets concurrent
// workflow engines share one physical accelerator safely.
func (n *Node) ClaimDeviceAt(idx int, at, dur float64) (start, end float64, ok bool, err error) {
	if idx < 0 || idx >= len(n.Devices) {
		return 0, 0, false, fmt.Errorf("platform: node %s has no device %d", n.Name, idx)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	start = at
	if b := n.busyUntil[idx]; b > start {
		start = b
	}
	if condAt(n.devHist[idx], start, 1) == 0 {
		return 0, 0, false, nil
	}
	end = start + dur
	n.busyUntil[idx] = end
	return start, end, true, nil
}

// ResetDeviceClaims clears all device reservations, returning every device
// to idle at modelled time zero. Engines call it when they take ownership of
// a cluster so stale claims from a previous run do not inflate start times.
func (n *Node) ResetDeviceClaims() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for idx := range n.busyUntil {
		delete(n.busyUntil, idx)
	}
}

// DeviceFreeAt returns the modelled time device idx becomes idle.
func (n *Node) DeviceFreeAt(idx int) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.busyUntil[idx]
}

// Fail marks the node as failed at modelled time t (monitor hook: the
// resource manager's failure detector calls this, executors consult
// FailedAt or Alive). Only the earliest failure time is kept.
func (n *Node) Fail(t float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.failed || t < n.failedAt {
		n.failed = true
		n.failedAt = t
	}
}

// Heal clears the failure state (tests and re-provisioning flows).
func (n *Node) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed = false
	n.failedAt = 0
}

// FailedAt reports whether the node has failed and, if so, when.
func (n *Node) FailedAt() (float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failedAt, n.failed
}

// Alive reports whether the node is still up at modelled time t.
func (n *Node) Alive(t float64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.failed || t <= n.failedAt
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

// TransferSeconds models moving bytes between two nodes.
func (c *Cluster) TransferSeconds(from, to string, bytes int64) float64 {
	if from == to {
		return 0
	}
	return c.Network.TransferSeconds(bytes)
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
