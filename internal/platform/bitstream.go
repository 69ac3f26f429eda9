package platform

import (
	"fmt"
	"sort"
	"sync"

	"everest/internal/hls"
)

// SystemConfig captures the FPGA system architecture Olympus generated
// around a kernel (paper §V-C): private local memories, bus organization,
// replication, and transfer scheduling.
type SystemConfig struct {
	Replicas       int   // kernel instances on the fabric
	BusWidthBits   int   // memory bus width
	Lanes          int   // bus lanes serving the replicas
	PackedElements int   // elements packed per bus beat (1 = unpacked)
	DoubleBuffered bool  // overlap transfer and compute
	PLMBytes       int64 // on-fabric private local memory footprint
	PLMShared      bool  // buffers share storage across kernel phases
}

// Validate checks internal consistency.
func (c SystemConfig) Validate() error {
	if c.Replicas < 1 {
		return fmt.Errorf("platform: config needs >= 1 replica")
	}
	if c.Lanes < 1 || c.BusWidthBits < 1 {
		return fmt.Errorf("platform: config needs positive bus width and lanes")
	}
	if c.BusWidthBits%c.Lanes != 0 {
		return fmt.Errorf("platform: bus width %d not divisible into %d lanes", c.BusWidthBits, c.Lanes)
	}
	if c.PackedElements < 1 {
		return fmt.Errorf("platform: packed elements must be >= 1")
	}
	return nil
}

// Bitstream is the deployable artifact: the HLS report of the kernel plus
// the generated system architecture. (A real bitstream is opaque; what the
// paper evaluates is exactly this architectural content.)
type Bitstream struct {
	ID       string
	Kernel   string
	Target   string // device name it was generated for
	Report   hls.Report
	Config   SystemConfig
	ElemBits int // datapath element width
}

// TotalResources returns the fabric resources of the full system: replicas
// plus the memory subsystem (PLMs, lane controllers, DMA engines).
func (b Bitstream) TotalResources() hls.Resources {
	r := b.Report.Resources.Scale(b.Config.Replicas)
	// Lane controllers and DMA engine overhead.
	r = r.Add(hls.Resources{LUT: 2000 + 500*b.Config.Lanes, FF: 3000 + 700*b.Config.Lanes})
	plm := b.Config.PLMBytes
	if b.Config.DoubleBuffered {
		plm *= 2
	}
	r = r.Add(hls.Resources{BRAM: int((plm + 2047) / 2048)})
	return r
}

// Registry stores bitstreams by ID, mimicking the deployment store the
// LEXIS-based flow pushes artifacts into (paper §IV).
type Registry struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

// Entry is one stored bitstream with the quantities derived from it: its
// fabric footprint, computed once at Put, and its worst-case timelines,
// priced once per (device, workload). Put and Delete replace the entry, so
// nothing derived outlives the bitstream it was derived from.
type Entry struct {
	bs        Bitstream
	resources hls.Resources

	mu     sync.Mutex
	bounds map[boundKey]boundMemo
}

// boundKey names one worst-case pricing of an entry.
type boundKey struct {
	dev *Device
	wl  Workload
}

// boundMemo is one remembered ExecuteBound result; ok=false records that
// the bitstream does not run on the device.
type boundMemo struct {
	tl Timeline
	ok bool
}

// maxBoundMemo caps an entry's bound memo; a full memo starts over, so a
// stream of distinct workloads cannot grow it without limit.
const maxBoundMemo = 256

// Bitstream returns a copy of the stored bitstream.
func (e *Entry) Bitstream() Bitstream { return e.bs }

// Resources returns the bitstream's TotalResources.
func (e *Entry) Resources() hls.Resources { return e.resources }

// BoundOn returns ExecuteBound of the bitstream on dev for wl; ok=false
// when it does not run there (it does not fit).
func (e *Entry) BoundOn(dev *Device, wl Workload) (Timeline, bool) {
	k := boundKey{dev: dev, wl: wl}
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, hit := e.bounds[k]; hit {
		return m.tl, m.ok
	}
	tl, err := ExecuteBound(dev, e.bs, wl)
	if e.bounds == nil || len(e.bounds) >= maxBoundMemo {
		e.bounds = make(map[boundKey]boundMemo)
	}
	e.bounds[k] = boundMemo{tl: tl, ok: err == nil}
	return tl, err == nil
}

// NewRegistry returns an empty bitstream registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]*Entry)} }

// Put stores a bitstream (overwrites by ID).
func (r *Registry) Put(b Bitstream) error {
	if b.ID == "" {
		return fmt.Errorf("platform: bitstream needs an ID")
	}
	if err := b.Config.Validate(); err != nil {
		return err
	}
	e := &Entry{bs: b, resources: b.TotalResources()}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[b.ID] = e
	return nil
}

// PutEntry stores an entry fetched from another registry (overwrites by
// ID). The two registries then share it, and with it everything already
// derived from the bitstream: a store that caches artifacts from a catalog
// keeps their derived quantities across evictions and refetches.
func (r *Registry) PutEntry(e *Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[e.bs.ID] = e
}

// Get fetches a bitstream by ID.
func (r *Registry) Get(id string) (Bitstream, error) {
	e, err := r.Entry(id)
	if err != nil {
		return Bitstream{}, err
	}
	return e.bs, nil
}

// Entry fetches the stored entry for id without copying the bitstream.
func (r *Registry) Entry(id string) (*Entry, error) {
	r.mu.RLock()
	e, ok := r.m[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("platform: no bitstream %q", id)
	}
	return e, nil
}

// Delete removes a bitstream by ID (missing IDs are a no-op). Bounded
// region stores evict idle artifacts through this; the federation-wide
// catalog retains the authoritative copy.
func (r *Registry) Delete(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, id)
}

// IDs returns all stored bitstream IDs, sorted.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.m))
	for id := range r.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
