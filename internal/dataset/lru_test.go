package dataset

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// scanStore is the reference LRU the linked-list Store must match
// operation for operation: a logical clock stamps every touch and each
// eviction scans every resident partition for the smallest stamp. It is
// the original O(n)-per-eviction implementation, kept here only as the
// differential model for FuzzStoreLRU, with the entry bound and a serial
// stage added beside it.
type scanStore struct {
	capacity int64
	slots    int
	resident map[Key]*scanEntry
	bytes    int64
	seq      int64
	stats    StoreStats
}

type scanEntry struct {
	ver Version
	use int64 // clock at last touch
}

func newScanStore(capacity int64, slots int) *scanStore {
	return &scanStore{capacity: capacity, slots: slots, resident: make(map[Key]*scanEntry)}
}

func (s *scanStore) Contains(r Ref) bool {
	e, ok := s.resident[r.Key()]
	if ok {
		s.seq++
		e.use = s.seq
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return ok
}

func (s *scanStore) Holds(r Ref) bool {
	_, ok := s.resident[r.Key()]
	return ok
}

// Estimate is the reference price: each missing key once, at at.
func (s *scanStore) Estimate(refs []Ref, at float64, link func(Ref, float64) (float64, bool)) float64 {
	seconds := 0.0
	seen := make(map[Key]bool)
	for _, r := range refs {
		if _, ok := s.resident[r.Key()]; !ok && !seen[r.Key()] {
			dt, _ := link(r, at)
			seconds += dt
		}
		seen[r.Key()] = true
	}
	return seconds
}

func (s *scanStore) Version(r Ref) (Version, bool) {
	e, ok := s.resident[r.Key()]
	if !ok {
		return Version{}, false
	}
	return e.ver, true
}

func (s *scanStore) Publish(v Version) []Version {
	key := v.Ref.Key()
	s.seq++
	if e, ok := s.resident[key]; ok {
		e.use = s.seq
		if !Supersedes(v, e.ver) {
			return nil
		}
		s.bytes += v.Ref.Bytes - e.ver.Ref.Bytes
		e.ver = v
		return s.enforce(key)
	}
	if s.capacity > 0 && v.Ref.Bytes > s.capacity {
		return nil
	}
	s.resident[key] = &scanEntry{ver: v, use: s.seq}
	s.bytes += v.Ref.Bytes
	return s.enforce(key)
}

func (s *scanStore) enforce(keep Key) []Version {
	var evicted []Version
	for (s.capacity > 0 && s.bytes > s.capacity) || (s.slots > 0 && len(s.resident) > s.slots) {
		var oldestKey Key
		var oldest *scanEntry
		for k, e := range s.resident {
			if k == keep {
				continue
			}
			if oldest == nil || e.use < oldest.use {
				oldestKey, oldest = k, e
			}
		}
		if oldest == nil {
			break // only the protected key remains
		}
		delete(s.resident, oldestKey)
		s.bytes -= oldest.ver.Ref.Bytes
		s.stats.Evictions++
		evicted = append(evicted, oldest.ver)
	}
	return evicted
}

// Oldest is the reference victim: the resident partition with the
// smallest touch stamp.
func (s *scanStore) Oldest() (Version, bool) {
	var oldest *scanEntry
	for _, e := range s.resident {
		if oldest == nil || e.use < oldest.use {
			oldest = e
		}
	}
	if oldest == nil {
		return Version{}, false
	}
	return oldest.ver, true
}

// Evict is the reference named eviction: counted like a bound-driven one.
func (s *scanStore) Evict(r Ref) bool {
	e, ok := s.resident[r.Key()]
	if ok {
		delete(s.resident, r.Key())
		s.bytes -= e.ver.Ref.Bytes
		s.stats.Evictions++
	}
	return ok
}

// scanFetch is one part the reference stage offered to its link.
type scanFetch struct {
	ref     Ref
	at      float64
	seconds float64
	shipped bool
	evicted []Version
}

// Stage is the reference serial stage: probe each listed partition in
// order; one missing and not already listed is offered to the link at the
// running time, and a shipped one is published and advances the clock.
func (s *scanStore) Stage(refs []Ref, at float64, by string, link func(Ref, float64) (float64, bool)) (float64, int64, []scanFetch) {
	var seconds float64
	var bytes int64
	var fetches []scanFetch
	seen := make(map[Key]bool)
	for _, r := range refs {
		if s.Contains(r) || seen[r.Key()] {
			seen[r.Key()] = true
			continue
		}
		seen[r.Key()] = true
		x := scanFetch{ref: r, at: at + seconds}
		x.seconds, x.shipped = link(r, x.at)
		if x.shipped {
			x.evicted = s.Publish(Version{Ref: r, ID: id(r), Time: x.at, Workflow: by, Task: "(fetch)"})
			seconds += x.seconds
			bytes += r.Bytes
		}
		fetches = append(fetches, x)
	}
	return seconds, bytes, fetches
}

func (s *scanStore) Keys() []string {
	keys := make([]string, 0, len(s.resident))
	for k := range s.resident {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	return keys
}

// Fuzzed op encoding for FuzzStoreLRU. The first byte picks the capacity
// (bits 0-1) and the entry bound (bits 2-3); every following 4 bytes are
// one op: [code, key, a, b], up to maxFuzzOps.
// The fuzzer minimizes each new input in time quadratic in its length, so
// the op budget is kept to what sixteen keys need to cycle the LRU.
const maxFuzzOps = 64

const (
	opPublish = iota // a = bytes, b = time | workflow | task
	opContains
	opHolds
	opEstimate // refs at keys key, a, b with sizes a, b, key at time b%4; code&0x80 = refusing link
	opStage    // the opEstimate refs and link, staged from time b%4 by workflow b%3
	opOldest
	opEvict
	opCount
)

var (
	fuzzCapacities = []int64{0, 10, 100, 1000}
	fuzzSlots      = []int{0, 1, 2, 4}
	fuzzNames      = []string{"a", "b", "c", "d"}
	fuzzWorkflows  = []string{"wfA", "wfB", "wfC"}
	fuzzTasks      = []string{"t0", "t1"}
)

func fuzzRef(sel, size byte) Ref {
	return Ref{Name: fuzzNames[sel%4], Partition: int(sel/4) % 4, Bytes: int64(size)}
}

// fuzzLink prices a fuzzed transfer by size alone; the refusing variant
// also turns down odd partitions at even times and even ones at odd times.
func fuzzLink(refusing bool) func(Ref, float64) (float64, bool) {
	return func(r Ref, at float64) (float64, bool) {
		return 0.5 + float64(r.Bytes)/16, !refusing || (r.Partition+int(at))%2 == 0
	}
}

func fuzzVersion(key, size, lineage byte) Version {
	r := fuzzRef(key, size)
	return Version{
		Ref:      r,
		ID:       id(r),
		Time:     float64(lineage % 4),
		Workflow: fuzzWorkflows[(lineage>>2)%3],
		Task:     fuzzTasks[(lineage>>4)%2],
	}
}

// lruOps encodes a capacity selector and ops for the seed corpus.
func lruOps(capSel byte, ops ...[4]byte) []byte {
	out := []byte{capSel}
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

// FuzzStoreLRU drives the linked-list Store and the scan reference with
// the same op sequence and requires identical observable state after
// every op: evicted versions in order, probe results, every fetch a stage
// reports, counters, resident bytes, keys and every partition's lineage
// record. A stage must also ship no part twice and, over a link that
// never refuses, charge at least what Estimate priced on the store it
// started from, and exactly that when it evicted none of its own parts.
func FuzzStoreLRU(f *testing.F) {
	// Key selectors: 0 = a#0, 1 = b#0, 2 = c#0, 3 = d#0, 4 = a#1, ...
	// Lineage byte: time in bits 0-1, workflow in 2-3, task in 4.
	f.Add(lruOps(2, // TestStoreLRUEviction: a, b, c at 40B in 100B; touch b; publish d
		[4]byte{opPublish, 0, 40, 0}, [4]byte{opPublish, 1, 40, 1}, [4]byte{opPublish, 2, 40, 2},
		[4]byte{opContains, 1, 0, 0}, [4]byte{opPublish, 3, 40, 3}))
	f.Add(lruOps(1, [4]byte{opPublish, 0, 11, 1}, [4]byte{opHolds, 0, 0, 0})) // oversized
	f.Add(lruOps(0,                                                           // unbounded
		[4]byte{opPublish, 0, 255, 0}, [4]byte{opPublish, 4, 255, 1}, [4]byte{opPublish, 8, 255, 2},
		[4]byte{opPublish, 12, 255, 3}, [4]byte{opEstimate, 0, 1, 4}))
	f.Add(lruOps(0, // TestStoreLineageTieBreak: later, older, equal-time higher and lower workflow
		[4]byte{opPublish, 0, 8, 2 | 1<<2}, [4]byte{opPublish, 0, 8, 1 | 2<<2},
		[4]byte{opPublish, 0, 8, 2 | 2<<2}, [4]byte{opPublish, 0, 8, 2 | 0<<2},
		[4]byte{opPublish, 0, 8, 2 | 2<<2 | 1<<4}))
	f.Add(lruOps(2, // TestStoreRejectedPublishStillTouches
		[4]byte{opPublish, 0, 40, 1}, [4]byte{opPublish, 1, 40, 2},
		[4]byte{opPublish, 0, 40, 0}, [4]byte{opPublish, 2, 40, 3}))
	f.Add(lruOps(2, // TestHoldsDoesNotPerturbLRU
		[4]byte{opPublish, 0, 40, 1}, [4]byte{opPublish, 1, 40, 2},
		[4]byte{opHolds, 0, 0, 0}, [4]byte{opEstimate, 0, 40, 40}, [4]byte{opPublish, 2, 40, 3}))
	f.Add(lruOps(2, // superseding growth past the bound evicts everything else
		[4]byte{opPublish, 0, 30, 0}, [4]byte{opPublish, 1, 30, 0}, [4]byte{opPublish, 2, 30, 0},
		[4]byte{opPublish, 1, 99, 1}, [4]byte{opPublish, 3, 1, 2}))
	f.Add(lruOps(3, // many small publishes in a large store, with probes
		[4]byte{opPublish, 0, 200, 0}, [4]byte{opPublish, 5, 250, 0}, [4]byte{opPublish, 10, 220, 1},
		[4]byte{opContains, 0, 0, 0}, [4]byte{opContains, 7, 0, 0}, [4]byte{opPublish, 15, 240, 2},
		[4]byte{opPublish, 3, 230, 3}, [4]byte{opPublish, 5, 10, 3}))
	f.Add(lruOps(2|1<<2, // one entry: stage a, b, c over a resident a; b evicts a, c evicts b
		[4]byte{opPublish, 0, 5, 0}, [4]byte{opStage, 0, 1, 2}, [4]byte{opStage, 2, 2, 2}))
	f.Add(lruOps(3|2<<2, // two entries, duplicates and a refusing link across times
		[4]byte{opStage, 5, 5, 1}, [4]byte{opStage | 0x80, 4, 9, 6}, [4]byte{opContains, 9, 0, 0},
		[4]byte{opStage | 0x80, 3, 7, 3}, [4]byte{opPublish, 7, 40, 2}, [4]byte{opStage, 7, 8, 7}))
	f.Add(lruOps(1|3<<2, // bytes and entries both bound; a stage of oversized parts
		[4]byte{opStage, 0, 4, 8}, [4]byte{opStage, 12, 200, 40}, [4]byte{opEstimate, 12, 0, 4}))
	f.Add(lruOps(3|2<<2, // named evictions of the oldest, the newest and a missing part
		[4]byte{opPublish, 0, 5, 0}, [4]byte{opPublish, 1, 5, 1}, [4]byte{opOldest, 0, 0, 0},
		[4]byte{opEvict, 0, 0, 0}, [4]byte{opOldest, 0, 0, 0}, [4]byte{opPublish, 2, 5, 2},
		[4]byte{opEvict, 2, 0, 0}, [4]byte{opEvict, 3, 0, 0}, [4]byte{opPublish, 3, 5, 3},
		[4]byte{opContains, 1, 0, 0}, [4]byte{opOldest, 0, 0, 0}, [4]byte{opEvict, 1, 0, 0},
		[4]byte{opEvict, 3, 0, 0}, [4]byte{opOldest, 0, 0, 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if max := 1 + 4*maxFuzzOps; len(data) > max {
			data = data[:max] // longer runs only slow minimization down
		}
		capacity := fuzzCapacities[int(data[0])%len(fuzzCapacities)]
		slots := fuzzSlots[int(data[0]>>2)%len(fuzzSlots)]
		got, want := NewStore(capacity, slots), newScanStore(capacity, slots)
		for i, ops := 0, data[1:]; len(ops) >= 4; i, ops = i+1, ops[4:] {
			code, key, a, b := ops[0], ops[1], ops[2], ops[3]
			switch (code & 0x7f) % opCount {
			case opPublish:
				v := fuzzVersion(key, a, b)
				if ev, wantEv := got.Publish(v), want.Publish(v); !slices.Equal(ev, wantEv) {
					t.Fatalf("op %d: Publish(%+v) evicted %v, want %v", i, v, ev, wantEv)
				}
			case opContains:
				r := fuzzRef(key, a)
				if g, w := got.Contains(id(r)), want.Contains(r); g != w {
					t.Fatalf("op %d: Contains(%v) = %v, want %v", i, r, g, w)
				}
			case opHolds:
				r := fuzzRef(key, a)
				if g, w := got.Holds(id(r)), want.Holds(r); g != w {
					t.Fatalf("op %d: Holds(%v) = %v, want %v", i, r, g, w)
				}
			case opEstimate:
				refs := []Ref{fuzzRef(key, a), fuzzRef(a, b), fuzzRef(b, key)}
				parts := []Part{Intern(refs[0]), Intern(refs[1]), Intern(refs[2])}
				at, price := float64(b%4), fuzzLink(code&0x80 != 0)
				link := func(p Part, at float64) (float64, bool) { return price(p.Ref, at) }
				if g, w := got.Estimate(parts, at, link), want.Estimate(refs, at, price); g != w {
					t.Fatalf("op %d: Estimate(%v) = %g, want %g", i, refs, g, w)
				}
			case opStage:
				refs := []Ref{fuzzRef(key, a), fuzzRef(a, b), fuzzRef(b, key)}
				parts := []Part{Intern(refs[0]), Intern(refs[1]), Intern(refs[2])}
				at, by := float64(b%4), fuzzWorkflows[b%3]
				refusing := code&0x80 != 0
				price := fuzzLink(refusing)
				link := func(p Part, at float64) (float64, bool) { return price(p.Ref, at) }
				est := got.Estimate(parts, at, link)
				var fetches []scanFetch
				gs, gb := got.Stage(parts, at, by, link, func(x Fetch) {
					fetches = append(fetches, scanFetch{x.Part.Ref, x.At, x.Seconds, x.Shipped, slices.Clone(x.Evicted)})
				})
				ws, wb, wantFetches := want.Stage(refs, at, by, price)
				if gs != ws || gb != wb {
					t.Fatalf("op %d: Stage(%v) = %g s/%d B, want %g s/%d B", i, refs, gs, gb, ws, wb)
				}
				if !slices.EqualFunc(fetches, wantFetches, func(x, y scanFetch) bool {
					return x.ref == y.ref && x.at == y.at && x.seconds == y.seconds &&
						x.shipped == y.shipped && slices.Equal(x.evicted, y.evicted)
				}) {
					t.Fatalf("op %d: Stage(%v) fetched %+v, want %+v", i, refs, fetches, wantFetches)
				}
				shipped := map[Key]bool{}
				ownEvicted := false
				for _, x := range fetches {
					if x.shipped && shipped[x.ref.Key()] {
						t.Fatalf("op %d: Stage(%v) shipped %v twice", i, refs, x.ref.Key())
					}
					shipped[x.ref.Key()] = x.shipped
					for _, v := range x.evicted {
						ownEvicted = ownEvicted || slices.ContainsFunc(refs, func(r Ref) bool { return r.Key() == v.Ref.Key() })
					}
				}
				if !refusing && (gs < est || (!ownEvicted && gs != est)) {
					t.Fatalf("op %d: Stage(%v) charged %g, Estimate priced %g (own evictions: %v)", i, refs, gs, est, ownEvicted)
				}
			case opOldest:
				gv, gok := got.Oldest()
				wv, wok := want.Oldest()
				if gv != wv || gok != wok {
					t.Fatalf("op %d: Oldest = %+v/%v, want %+v/%v", i, gv, gok, wv, wok)
				}
			case opEvict:
				r := fuzzRef(key, a)
				if g, w := got.Evict(id(r)), want.Evict(r); g != w {
					t.Fatalf("op %d: Evict(%v) = %v, want %v", i, r, g, w)
				}
			}
			if g, w := got.Stats(), want.stats; g != w {
				t.Fatalf("op %d: Stats = %+v, want %+v", i, g, w)
			}
			if g, w := got.bytes, want.bytes; g != w {
				t.Fatalf("op %d: Resident = %d, want %d", i, g, w)
			}
			if g, w := got.Len(), len(want.resident); g != w {
				t.Fatalf("op %d: Len = %d, want %d", i, g, w)
			}
			if g, w := keys(got), want.Keys(); !slices.Equal(g, w) {
				t.Fatalf("op %d: Keys = %v, want %v", i, g, w)
			}
			for sel := byte(0); sel < 16; sel++ {
				r := fuzzRef(sel, 0)
				gv, gok := version(got, id(r))
				wv, wok := want.Version(r)
				if gv != wv || gok != wok {
					t.Fatalf("op %d: Version(%v) = %+v/%v, want %+v/%v", i, r.Key(), gv, gok, wv, wok)
				}
			}
		}
	})
}

// publishRing returns n distinct partitions of size bytes, pre-built so a
// timed publish loop formats no names.
func publishRing(n int, size int64) []Version {
	vs := make([]Version, n)
	for i := range vs {
		r := Ref{Name: "ring", Partition: i, Bytes: size}
		vs[i] = Version{Ref: r, ID: id(r), Workflow: "wf", Task: "t"}
	}
	return vs
}

// TestStorePublishAllocFree pins the steady-state publish at zero
// allocations: once the store is full and the caller's eviction buffer
// has grown, admitting a new partition reuses an evicted entry and
// appends the victim into the reused buffer.
func TestStorePublishAllocFree(t *testing.T) {
	const resident = 8
	ring := publishRing(4*resident, 64)
	s := NewStore(resident*64, 0)
	var evicted []Version
	i := 0
	publish := func() {
		v := ring[i%len(ring)]
		v.Time = float64(i)
		evicted = s.Publish(v)
		i++
	}
	for range 2 * len(ring) {
		publish()
	}
	if got := testing.AllocsPerRun(1000, func() {
		publish()
		if len(evicted) != 1 {
			t.Fatalf("publish evicted %d, want 1", len(evicted))
		}
	}); got != 0 {
		t.Errorf("evicting publish allocates %.2f per run, budget 0", got)
	}
}

// TestStoreStageAllocFree pins a steady-state evicting Stage at zero
// allocations: the link, the fetch callback and the eviction buffer all
// stay off the heap, as the serving tiers' fetch paths need.
func TestStoreStageAllocFree(t *testing.T) {
	ring := publishRing(16, 64)
	parts := make([]Part, len(ring))
	for i, v := range ring {
		parts[i] = Part{Ref: v.Ref, ID: v.ID}
	}
	s := NewStore(0, 4)
	link := Link(func(p Part, _ float64) (float64, bool) { return float64(p.Ref.Bytes), true })
	fetches, i := 0, 0
	stage := func() {
		s.Stage(parts[i%len(parts):i%len(parts)+1], float64(i), "wf", link, func(x Fetch) {
			fetches += len(x.Evicted)
		})
		i++
	}
	for range 2 * len(parts) {
		stage()
	}
	if got := testing.AllocsPerRun(1000, stage); got != 0 {
		t.Errorf("evicting stage allocates %.2f per run, budget 0", got)
	}
	if fetches == 0 {
		t.Fatal("the ring never evicted")
	}
}

// BenchmarkStorePublish times one evicting publish at several resident
// partition counts: the byte bound holds exactly that many partitions, so
// every publish admits one and evicts the least recently used. Flat ns/op
// across sizes is the O(1) claim; 0 allocs/op is the recycling claim.
func BenchmarkStorePublish(b *testing.B) {
	for _, resident := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			ring := publishRing(2*resident, 64)
			s := NewStore(int64(resident)*64, 0)
			for i, v := range ring {
				v.Time = float64(i)
				s.Publish(v)
			}
			b.ReportAllocs()
			i := len(ring)
			for b.Loop() {
				v := ring[i%len(ring)]
				v.Time = float64(i)
				s.Publish(v)
				i++
			}
			if s.Len() != resident {
				b.Fatalf("Len = %d, want %d", s.Len(), resident)
			}
		})
	}
}
