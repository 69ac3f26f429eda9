package fleet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"everest/internal/dataset"
	"everest/internal/hls"
	"everest/internal/platform"
)

// TestWarmDropsStaleCopy warms a bitstream whose resident copy sits on an
// unplugged device. The stale copy must be dropped first, as the serving
// path does, so the redeploy lands on a vacant live device and the live
// bitstream on node00 stays programmed.
func TestWarmDropsStaleCopy(t *testing.T) {
	reg := platform.NewRegistry()
	for _, id := range []string{"a", "b"} {
		if err := reg.Put(testBitstream(id)); err != nil {
			t.Fatal(err)
		}
	}
	evicts := 0
	f := newTestFleet(t, reg, Config{Sites: 1, CacheSlots: 2, NewCluster: testCluster(3),
		Trace: func(ev Event) {
			if ev.Kind == EventEvict {
				evicts++
			}
		}})
	defer f.Shutdown()
	for _, id := range []string{"a", "b"} {
		if _, _, err := f.Warm(needPart(id), 0); err != nil {
			t.Fatal(err)
		}
	}
	nodes := f.Cluster(0).Nodes
	if _, err := nodes[1].SetDeviceOffline(0, true, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Warm(needPart("b"), 2); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "", "b"} {
		got, _ := nodes[i].Programmed(0)
		if got != want {
			t.Errorf("node%02d holds %q, want %q", i, got, want)
		}
	}
	if st := f.Stats(); st.Evictions() != 1 || evicts != 1 {
		t.Errorf("Evictions = %d with %d evict events, want 1 and 1 (the stale b)", st.Evictions(), evicts)
	}
}

// TestResidencyCountersMatchTrace drives cache churn, an unplug and
// prefetches through one fleet and requires every residency counter to
// equal the number of trace events of its kind.
func TestResidencyCountersMatchTrace(t *testing.T) {
	reg := platform.NewRegistry()
	ids := []string{"c0", "c1", "c2", "c3"}
	for _, id := range ids {
		if err := reg.Put(testBitstream(id)); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[EventKind]int{}
	f := newTestFleet(t, reg, Config{Sites: 2, CacheSlots: 2, NewCluster: testCluster(2),
		Trace: func(ev Event) { counts[ev.Kind]++ }})
	defer f.Shutdown()
	at := 0.0
	for i := range 24 {
		if i == 8 {
			for s := range f.Sites() {
				if _, err := f.Cluster(s).Nodes[0].SetDeviceOffline(0, true, at); err != nil {
					t.Fatal(err)
				}
			}
		}
		if i%5 == 0 {
			if _, _, err := f.Warm(needPart(ids[(i/5)%len(ids)]), at); err != nil {
				t.Fatal(err)
			}
		}
		tk, err := f.Submit(Request{Tenant: fmt.Sprintf("t%d", i%3), Workflow: fpgaWorkflow(ids[(i*7)%len(ids)]), Arrival: at})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		at = res.Completion
	}
	st := f.Stats()
	if st.Evictions() == 0 || st.Redeploys() == 0 || counts[EventWarm] == 0 || st.CacheHits() == 0 {
		t.Fatalf("hits %d, evictions %d, redeploys %d, warms %d: want residency churn",
			st.CacheHits(), st.Evictions(), st.Redeploys(), counts[EventWarm])
	}
	for _, c := range []struct {
		kind EventKind
		n    int
	}{
		{EventCacheHit, st.CacheHits()}, {EventCacheMiss, st.CacheMisses()},
		{EventEvict, st.Evictions()}, {EventRedeploy, st.Redeploys()},
	} {
		if counts[c.kind] != c.n {
			t.Errorf("%d %v events, counter reads %d", counts[c.kind], c.kind, c.n)
		}
	}
}

// refSlot and refCache are the O(n) bitstream cache the fleet kept beside
// its nodes before the nodes became the one record of residency: each
// entry copies the slot its bitstream was programmed into, lru() and
// occupied() scan every entry. Kept only as FuzzSiteResidency's reference.
type refSlot struct {
	id          string
	node        *platform.Node
	dev, region int
	use         int64 // last-touch sequence
}

type refCache struct {
	slots int
	seq   int64
	m     map[string]*refSlot
}

func (c *refCache) get(id string) (*refSlot, bool) {
	s, ok := c.m[id]
	if ok {
		c.seq++
		s.use = c.seq
	}
	return s, ok
}

func (c *refCache) lru() *refSlot {
	var victim *refSlot
	for _, s := range c.m {
		if victim == nil || s.use < victim.use {
			victim = s
		}
	}
	return victim
}

func (c *refCache) occupied(node *platform.Node, dev, region int) bool {
	for _, s := range c.m {
		if s.node == node && s.dev == dev && (region < 0 || s.region < 0 || s.region == region) {
			return true
		}
	}
	return false
}

// refSite replays one site's serve, warm and deploy decisions on a
// refCache, with the stale-copy drop in every path. It shares the real
// site's device conditions, never its residency or its slot rule
// (platform.Node.Slot), and records the residency events the fleet should
// trace.
type refSite struct {
	s       *site
	reg     *platform.Registry
	partial bool
	cache   refCache
	ever    map[string]bool
	stats   SiteStats // the residency counters only
	events  []string
}

func (r *refSite) live(id string, at float64) bool {
	sl, ok := r.cache.m[id]
	return ok && sl.node.DeviceOnlineAt(sl.dev, at)
}

func (r *refSite) dropStale(id string) {
	if sl, ok := r.cache.m[id]; ok {
		delete(r.cache.m, id)
		r.stats.Evictions++
		r.events = append(r.events, fmt.Sprintf("evict %s %s/%s offline", id, sl.node.Name, slotName(sl.dev, sl.region)))
	}
}

func (r *refSite) serve(id string, at float64) {
	if sl, hit := r.cache.get(id); hit && sl.node.DeviceOnlineAt(sl.dev, at) {
		r.stats.CacheHits++
		r.events = append(r.events, "cache-hit "+id)
		return
	}
	r.dropStale(id)
	r.stats.CacheMisses++
	r.events = append(r.events, "cache-miss "+id)
	r.deploy(id, at)
}

func (r *refSite) warm(id string, at float64) {
	if r.live(id, at) {
		return
	}
	r.dropStale(id)
	if r.deploy(id, at) {
		r.events = append(r.events, "warm "+id)
	}
}

func (r *refSite) deploy(id string, at float64) bool {
	ent, err := r.reg.Entry(id)
	if err != nil {
		panic(err)
	}
	for {
		if len(r.cache.m) < r.cache.slots {
			if n, dev, region := r.target(ent.Resources(), at); n != nil {
				r.cache.seq++
				r.cache.m[id] = &refSlot{id: id, node: n, dev: dev, region: region, use: r.cache.seq}
				kind := "deploy"
				if r.ever[id] {
					r.stats.Redeploys++
					kind = "redeploy"
				}
				r.ever[id] = true
				r.events = append(r.events, fmt.Sprintf("%s %s %s/%s", kind, id, n.Name, slotName(dev, region)))
				return true
			}
		}
		v := r.cache.lru()
		if v == nil {
			r.stats.FallbackDeploys++
			r.events = append(r.events, "fallback "+id+" no online device fits")
			return false
		}
		delete(r.cache.m, v.id)
		r.stats.Evictions++
		r.events = append(r.events, fmt.Sprintf("evict %s lru from %s/%s", v.id, v.node.Name, slotName(v.dev, v.region)))
	}
}

// target is the reference slot rule, on the refCache's occupancy: the
// first alive node's device online at modelled time at that fits need,
// in its first unoccupied PR region when partial is on and need fits a
// region, else whole if unoccupied.
func (r *refSite) target(need hls.Resources, at float64) (*platform.Node, int, int) {
	for _, n := range r.s.cluster.Nodes {
		if _, failed := n.FailedAt(); failed {
			continue
		}
		for idx, d := range n.Devices {
			if !n.DeviceOnlineAt(idx, at) || !need.FitsIn(d.Capacity) {
				continue
			}
			if r.partial && need.FitsIn(d.RegionCapacity()) {
				for region := range d.Regions() {
					if !r.cache.occupied(n, idx, region) {
						return n, idx, region
					}
				}
				continue
			}
			if !r.cache.occupied(n, idx, -1) {
				return n, idx, -1
			}
		}
	}
	return nil, -1, -1
}

// residencyEvent renders a fleet trace event the way refSite records it;
// "" for events that are not about bitstream residency.
func residencyEvent(ev Event) string {
	switch ev.Kind {
	case EventCacheHit, EventCacheMiss, EventWarm:
		return ev.Kind.String() + " " + ev.Bitstream
	case EventDeploy, EventRedeploy:
		slot, _, _ := strings.Cut(ev.Detail, " ")
		return ev.Kind.String() + " " + ev.Bitstream + " " + slot
	case EventEvict, EventFallback:
		return ev.Kind.String() + " " + ev.Bitstream + " " + ev.Detail
	}
	return ""
}

// Fuzzed op encoding for FuzzSiteResidency. The first byte is the site:
// nodes 1-3 (mod 3), CacheSlots 1-4 (bits 2-3), PartialReconfig (bit 4).
// Every following 2 bytes are one op [code, arg]: the low bits of arg
// pick the kernel or node, its high nibble advances the clock.
const maxResidencyOps = 48

const (
	resSubmit = iota // serve fpgaWorkflow(kernel arg%5)
	resWarm          // Warm(kernel arg%5)
	resUnplug        // node arg%3's device offline (arg bit 2 clear) or back online
	resOpCount
)

// residencyKernels are the fuzzed bitstreams; the last is too big for a
// PR region, so it deploys whole-device even with PartialReconfig.
var residencyKernels = []string{"r0", "r1", "r2", "r3", "big"}

func residencyOps(site byte, ops ...[2]byte) []byte {
	out := []byte{site}
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

// FuzzSiteResidency drives one fleet site and refSite with the same ops
// and requires the same residency events (every hit, miss, target slot,
// victim and fallback, in order) and counters after every op. It also
// checks the one-record invariants: each bitstream the site holds is
// programmed exactly where the reference put it and nowhere else, no
// slot holds anything else, and the site store's ids are those
// bitstreams.
func FuzzSiteResidency(f *testing.F) {
	f.Add(residencyOps(2|1<<2, // Warm on a stale copy (TestWarmDropsStaleCopy)
		[2]byte{resWarm, 0}, [2]byte{resWarm, 1}, [2]byte{resUnplug, 0x11}, [2]byte{resWarm, 0x11}))
	f.Add(residencyOps(0, // one slot, churn, a stale serve, replug
		[2]byte{resSubmit, 0}, [2]byte{resSubmit, 1}, [2]byte{resSubmit, 0x10},
		[2]byte{resUnplug, 0}, [2]byte{resSubmit, 0x20}, [2]byte{resUnplug, 4}, [2]byte{resSubmit, 0x31}))
	f.Add(residencyOps(1|3<<2|1<<4, // PR regions fill, then a whole-device kernel
		[2]byte{resSubmit, 0}, [2]byte{resWarm, 1}, [2]byte{resSubmit, 2}, [2]byte{resWarm, 3},
		[2]byte{resSubmit, 4}, [2]byte{resSubmit, 0}, [2]byte{resUnplug, 1}, [2]byte{resSubmit, 0x14}))
	f.Add(residencyOps(0|1<<2|1<<4, // a Warm of a resident kernel leaves its recency alone
		[2]byte{resSubmit, 0}, [2]byte{resSubmit, 1}, [2]byte{resWarm, 0}, [2]byte{resSubmit, 2}))
	f.Add(residencyOps(0|2<<2|1<<4, // two regions on one card, evicted out of region order
		[2]byte{resSubmit, 0}, [2]byte{resSubmit, 1}, [2]byte{resSubmit, 0}, [2]byte{resSubmit, 2},
		[2]byte{resSubmit, 3}, [2]byte{resWarm, 4}, [2]byte{resSubmit, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if max := 1 + 2*maxResidencyOps; len(data) > max {
			data = data[:max]
		}
		nodes, slots, partial := 1+int(data[0])%3, 1+int(data[0]>>2)%4, data[0]&(1<<4) != 0
		reg := platform.NewRegistry()
		for _, id := range residencyKernels {
			bs := testBitstream(id)
			if id == "big" {
				bs.Report.Resources.LUT = 300000
			}
			if err := reg.Put(bs); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		fl := newTestFleet(t, reg, Config{Sites: 1, CacheSlots: slots, PartialReconfig: partial,
			NewCluster: testCluster(nodes),
			Trace: func(ev Event) {
				if e := residencyEvent(ev); e != "" {
					got = append(got, e)
				}
			}})
		defer fl.Shutdown()
		s := fl.sites[0]
		ref := &refSite{s: s, reg: reg, partial: partial,
			cache: refCache{slots: slots, m: map[string]*refSlot{}}, ever: map[string]bool{}}
		at := 0.0
		for i, ops := 0, data[1:]; len(ops) >= 2; i, ops = i+1, ops[2:] {
			code, arg := ops[0]%resOpCount, ops[1]
			at += float64(arg>>4) * 0.05
			id := residencyKernels[int(arg&0x0f)%len(residencyKernels)]
			switch code {
			case resSubmit:
				start := max(at, s.busyUntil)
				tk, err := fl.Submit(Request{Tenant: "t", Workflow: fpgaWorkflow(id), Arrival: at})
				if err != nil {
					t.Fatalf("op %d: Submit(%s): %v", i, id, err)
				}
				if _, err := tk.Wait(); err != nil {
					t.Fatalf("op %d: serve %s: %v", i, id, err)
				}
				ref.serve(id, start)
			case resWarm:
				_, _, _ = fl.Warm(needPart(id), at)
				ref.warm(id, at)
			case resUnplug:
				n := s.cluster.Nodes[int(arg&0x03)%nodes]
				if _, err := n.SetDeviceOffline(0, arg&0x04 == 0, at); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(got, ref.events) {
				t.Fatalf("op %d: residency events\n%s\nwant\n%s", i, strings.Join(got, "\n"), strings.Join(ref.events, "\n"))
			}
			st := fl.Stats().Sites[0]
			if st.CacheHits != ref.stats.CacheHits || st.CacheMisses != ref.stats.CacheMisses ||
				st.Evictions != ref.stats.Evictions || st.Redeploys != ref.stats.Redeploys ||
				st.FallbackDeploys != ref.stats.FallbackDeploys {
				t.Fatalf("op %d: counters %+v, reference %+v", i, st, ref.stats)
			}
			checkOneRecord(t, i, s, ref)
		}
	})
}

// checkOneRecord requires the site's nodes to hold exactly the reference
// cache's bitstreams, each in its recorded slot, and the site store to
// hold exactly their ids.
func checkOneRecord(t *testing.T, op int, s *site, ref *refSite) {
	t.Helper()
	var want []string
	for id, sl := range ref.cache.m {
		want = append(want, id)
		for _, n := range s.cluster.Nodes {
			dev, region, ok := n.Holding(id)
			if mine := n == sl.node; ok != mine || (mine && (dev != sl.dev || region != sl.region)) {
				t.Fatalf("op %d: %s.Holding(%s) = dev%d r%d %v, reference slot %s/%s",
					op, n.Name, id, dev, region, ok, sl.node.Name, slotName(sl.dev, sl.region))
			}
		}
	}
	occupied := 0
	for _, n := range s.cluster.Nodes {
		for dev, d := range n.Devices {
			if _, loaded := n.Programmed(dev); loaded {
				occupied++
				continue
			}
			for r := range d.Regions() {
				if !n.Vacant(dev, r) {
					occupied++
				}
			}
		}
	}
	if occupied != len(ref.cache.m) {
		t.Fatalf("op %d: %d slots programmed, reference holds %d bitstreams", op, occupied, len(ref.cache.m))
	}
	for _, id := range want {
		if !s.bstore.Holds(dataset.Intern(dataset.Ref{Name: id}).ID) {
			t.Fatalf("op %d: site store lacks %s", op, id)
		}
	}
	if s.bstore.Len() != len(want) {
		t.Fatalf("op %d: site store holds %d bitstreams, want %d", op, s.bstore.Len(), len(want))
	}
}
