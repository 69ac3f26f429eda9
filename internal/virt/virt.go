// Package virt models the EVEREST virtualized runtime environment (paper
// §VI-B, Fig. 6): QEMU-KVM hypervisors with a libvirtd-like control API,
// SR-IOV physical/virtual functions exposing FPGA accelerators to VMs, and
// the dynamic VF plug/unplug mechanism EVEREST adds to work around SR-IOV's
// static nature.
//
// The performance model captures the paper's claims: VF passthrough is
// near-native (a few percent overhead), software I/O virtualization
// (virtio-style) is markedly slower but more flexible, and plug/unplug has a
// hot-plug latency cost.
package virt

import (
	"fmt"
	"sort"
	"sync"

	"everest/internal/platform"
)

// IOPath selects how a VM reaches the accelerator.
type IOPath int

// I/O paths.
const (
	// Native is host (non-virtualized) access: the baseline.
	Native IOPath = iota
	// VFPassthrough is SR-IOV virtual function passthrough.
	VFPassthrough
	// VirtIO is the software-emulated path.
	VirtIO
)

func (p IOPath) String() string {
	switch p {
	case VFPassthrough:
		return "vf-passthrough"
	case VirtIO:
		return "virtio"
	default:
		return "native"
	}
}

// Overhead returns the multiplicative execution-time overhead of the path.
func (p IOPath) Overhead() float64 {
	switch p {
	case VFPassthrough:
		return 1.03 // near-native (paper: "near-native performance")
	case VirtIO:
		return 1.35
	default:
		return 1.0
	}
}

// HotplugSeconds is the modelled latency of one VF plug or unplug.
const HotplugSeconds = 0.050

// VF is one SR-IOV virtual function of a device.
type VF struct {
	ID       int
	Device   int    // device index on the node
	Assigned string // VM name, or "" if free
}

// PF is the physical function: the management interface of one device.
type PF struct {
	Device int
	MaxVFs int
	VFs    []*VF
}

// FreeVFs returns the unassigned VFs.
func (p *PF) FreeVFs() []*VF {
	var out []*VF
	for _, vf := range p.VFs {
		if vf.Assigned == "" {
			out = append(out, vf)
		}
	}
	return out
}

// VM is a guest machine.
type VM struct {
	Name  string
	VCPUs int
	vfs   map[int]*VF // keyed by VF ID
}

// HotplugKind classifies hot-plug notifications.
type HotplugKind int

// Hot-plug notification kinds.
const (
	// VFPlugged fires when a VF is assigned to a VM.
	VFPlugged HotplugKind = iota
	// VFUnplugged fires when a VF is removed from a VM.
	VFUnplugged
)

// HotplugEvent is one VF plug/unplug notification. AssignedVFs reports how
// many VFs of the device remain assigned to any VM after the operation —
// zero on an unplug means the accelerator just became unreachable from
// every guest, which is what the resource manager's adaptation loop keys
// on.
type HotplugEvent struct {
	Kind        HotplugKind
	Node        string
	VM          string
	Device      int
	FreeVFs     int // free VFs left in the device's SR-IOV pool
	AssignedVFs int // VFs of the device still assigned to some VM
}

// Hypervisor is the per-node virtualization stack: QEMU-KVM plus the
// libvirtd agent exposing the control API to the resource manager and the
// autotuner.
type Hypervisor struct {
	Node *platform.Node

	mu        sync.Mutex
	pfs       []*PF
	vms       map[string]*VM
	subs      []func(HotplugEvent)
	pending   []HotplugEvent // events enqueued under mu, delivered in order
	notifying bool           // one goroutine drains pending at a time
}

// NewHypervisor creates a hypervisor over a node, exposing maxVFs virtual
// functions per attached device (SR-IOV's statically-defined VF pool).
func NewHypervisor(node *platform.Node, maxVFs int) (*Hypervisor, error) {
	if maxVFs < 1 {
		return nil, fmt.Errorf("virt: need at least one VF per device")
	}
	h := &Hypervisor{Node: node, vms: make(map[string]*VM)}
	id := 0
	for d := range node.Devices {
		pf := &PF{Device: d, MaxVFs: maxVFs}
		for i := 0; i < maxVFs; i++ {
			pf.VFs = append(pf.VFs, &VF{ID: id, Device: d})
			id++
		}
		h.pfs = append(h.pfs, pf)
	}
	return h, nil
}

// Subscribe registers a hot-plug listener (the libvirtd event stream the
// resource manager attaches to). Events are delivered in mutation order,
// outside the hypervisor lock, so callbacks may call back into the
// hypervisor or the engine. Delivery happens on whichever plug/unplug
// goroutine holds the drain at the time: with concurrent pluggers, a
// PlugVF/UnplugVF call can return before its own event has been delivered
// (another goroutine delivers it, still in order).
func (h *Hypervisor) Subscribe(fn func(HotplugEvent)) {
	if fn == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs = append(h.subs, fn)
}

// drain delivers pending notifications in enqueue order. Events are
// appended to h.pending under the same lock that mutates VF state, so
// delivery order always matches mutation order even when several
// goroutines plug and unplug concurrently; a single drainer at a time
// guarantees no two callbacks interleave out of order. Callbacks run
// without the lock held, so they may call back into the hypervisor — a
// nested plug/unplug enqueues its event and returns, and the outer drain
// delivers it. A subscriber that panics ends this drain: the panic goes
// on up to the plug/unplug that was draining, the event it was handed
// counts as delivered (later subscribers miss it), the events after it
// stay queued, and the next plug/unplug drains them.
func (h *Hypervisor) drain() {
	h.mu.Lock()
	if h.notifying {
		h.mu.Unlock()
		return
	}
	h.notifying = true
	delivered := false
	defer func() {
		if !delivered {
			// A subscriber panicked, outside the lock: give the drain up
			// and let the panic go on.
			h.mu.Lock()
			h.notifying = false
			h.mu.Unlock()
		}
	}()
	for len(h.pending) > 0 {
		ev := h.pending[0]
		h.pending = h.pending[1:]
		subs := append(make([]func(HotplugEvent), 0, len(h.subs)), h.subs...)
		h.mu.Unlock()
		for _, fn := range subs {
			fn(ev)
		}
		h.mu.Lock()
	}
	h.notifying = false
	h.mu.Unlock()
	delivered = true
}

// deviceVFState counts the device's free and assigned VFs. Callers hold
// h.mu.
func (h *Hypervisor) deviceVFState(device int) (free, assigned int) {
	if device < 0 || device >= len(h.pfs) {
		return 0, 0
	}
	for _, vf := range h.pfs[device].VFs {
		if vf.Assigned == "" {
			free++
		} else {
			assigned++
		}
	}
	return free, assigned
}

// DefineVM creates a guest (virsh define + start analogue).
func (h *Hypervisor) DefineVM(name string, vcpus int) (*VM, error) {
	if name == "" || vcpus < 1 {
		return nil, fmt.Errorf("virt: VM needs a name and at least one vcpu")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.vms[name]; dup {
		return nil, fmt.Errorf("virt: VM %q already defined", name)
	}
	vm := &VM{Name: name, VCPUs: vcpus, vfs: make(map[int]*VF)}
	h.vms[name] = vm
	return vm, nil
}

// PlugVF assigns a free VF of the device to the VM (the dynamic plugging
// mechanism of §VI-B). Returns the modelled hot-plug time.
func (h *Hypervisor) PlugVF(vmName string, device int) (float64, error) {
	h.mu.Lock()
	vm, ok := h.vms[vmName]
	if !ok {
		h.mu.Unlock()
		return 0, fmt.Errorf("virt: no VM %q", vmName)
	}
	if device < 0 || device >= len(h.pfs) {
		h.mu.Unlock()
		return 0, fmt.Errorf("virt: no device %d", device)
	}
	for _, vf := range h.pfs[device].VFs {
		if vf.Assigned == "" {
			vf.Assigned = vmName
			vm.vfs[vf.ID] = vf
			free, assigned := h.deviceVFState(device)
			h.pending = append(h.pending, HotplugEvent{
				Kind: VFPlugged, Node: h.Node.Name, VM: vmName, Device: device,
				FreeVFs: free, AssignedVFs: assigned,
			})
			h.mu.Unlock()
			h.drain()
			return HotplugSeconds, nil
		}
	}
	h.mu.Unlock()
	return 0, fmt.Errorf("virt: no free VF on device %d (SR-IOV pool exhausted)", device)
}

// UnplugVF removes one VF of the device from the VM.
func (h *Hypervisor) UnplugVF(vmName string, device int) (float64, error) {
	h.mu.Lock()
	vm, ok := h.vms[vmName]
	if !ok {
		h.mu.Unlock()
		return 0, fmt.Errorf("virt: no VM %q", vmName)
	}
	for id, vf := range vm.vfs {
		if vf.Device == device {
			vf.Assigned = ""
			delete(vm.vfs, id)
			free, assigned := h.deviceVFState(device)
			h.pending = append(h.pending, HotplugEvent{
				Kind: VFUnplugged, Node: h.Node.Name, VM: vmName, Device: device,
				FreeVFs: free, AssignedVFs: assigned,
			})
			h.mu.Unlock()
			h.drain()
			return HotplugSeconds, nil
		}
	}
	h.mu.Unlock()
	return 0, fmt.Errorf("virt: VM %q holds no VF of device %d", vmName, device)
}

// hasVF reports whether the VM holds a VF of the device.
func (h *Hypervisor) hasVF(vmName string, device int) bool {
	vm, ok := h.vms[vmName]
	if !ok {
		return false
	}
	for _, vf := range vm.vfs {
		if vf.Device == device {
			return true
		}
	}
	return false
}

// RunAccelerated returns what kernel timeline tl costs a VM through the
// chosen I/O path: the path's overhead applied to tl's transfers. The
// caller prices tl on the device (platform.Node.KernelTime) inside the
// front that owns the node; the hypervisor reads no node state. VF
// passthrough requires the VM to hold a VF of that device.
func (h *Hypervisor) RunAccelerated(vmName string, device int, tl platform.Timeline, path IOPath) (platform.Timeline, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if path == VFPassthrough && !h.hasVF(vmName, device) {
		return platform.Timeline{}, fmt.Errorf("virt: VM %q has no VF for device %d", vmName, device)
	}
	if _, ok := h.vms[vmName]; !ok && path != Native {
		return platform.Timeline{}, fmt.Errorf("virt: no VM %q", vmName)
	}
	ov := path.Overhead()
	tl.TransferIn *= ov
	tl.TransferOut *= ov
	tl.Compute *= 1 // fabric time is unaffected; only I/O pays
	tl.Total = tl.TransferIn + tl.Compute + tl.TransferOut
	return tl, nil
}

// NodeStatus is the libvirt-style query result the resource allocator and
// autotuner consume ("the node ... can respond to queries about available
// resources and the system's current status").
type NodeStatus struct {
	Node        string
	VMs         []VMStatus
	FreeVFs     map[int]int // device -> free VF count
	AssignedVFs map[int]int // device -> VFs currently held by guests
}

// VMStatus summarizes one guest.
type VMStatus struct {
	Name  string
	VCPUs int
	VFs   int
}

// Query returns the current status snapshot.
func (h *Hypervisor) Query() NodeStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := NodeStatus{Node: h.Node.Name, FreeVFs: make(map[int]int), AssignedVFs: make(map[int]int)}
	names := make([]string, 0, len(h.vms))
	for name := range h.vms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vm := h.vms[name]
		st.VMs = append(st.VMs, VMStatus{Name: vm.Name, VCPUs: vm.VCPUs, VFs: len(vm.vfs)})
	}
	for _, pf := range h.pfs {
		free := len(pf.FreeVFs())
		st.FreeVFs[pf.Device] = free
		st.AssignedVFs[pf.Device] = len(pf.VFs) - free
	}
	return st
}

// Rebalance implements the resource-allocator-driven mechanism of §VI-B:
// given a demand map (VM -> wanted VF count on device 0..n), it unplugs
// surplus VFs and plugs missing ones, returning the total modelled hot-plug
// time. Demand that exceeds the pool is satisfied in sorted VM-name order.
func (h *Hypervisor) Rebalance(demand map[string]map[int]int) (float64, error) {
	total := 0.0
	names := make([]string, 0, len(demand))
	for name := range demand {
		names = append(names, name)
	}
	sort.Strings(names)
	// First release surplus.
	for _, name := range names {
		for dev, want := range demand[name] {
			for h.countVFs(name, dev) > want {
				dt, err := h.UnplugVF(name, dev)
				if err != nil {
					return total, err
				}
				total += dt
			}
		}
	}
	// Then satisfy demand while the pool lasts.
	for _, name := range names {
		devs := make([]int, 0, len(demand[name]))
		for dev := range demand[name] {
			devs = append(devs, dev)
		}
		sort.Ints(devs)
		for _, dev := range devs {
			want := demand[name][dev]
			for h.countVFs(name, dev) < want {
				dt, err := h.PlugVF(name, dev)
				if err != nil {
					// Pool exhausted: partial satisfaction, not an error.
					return total, nil
				}
				total += dt
			}
		}
	}
	return total, nil
}

func (h *Hypervisor) countVFs(vmName string, device int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, ok := h.vms[vmName]
	if !ok {
		return 0
	}
	n := 0
	for _, vf := range vm.vfs {
		if vf.Device == device {
			n++
		}
	}
	return n
}
