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
// differential model for FuzzStoreLRU.
type scanStore struct {
	capacity int64
	resident map[Key]*scanEntry
	bytes    int64
	seq      int64
	stats    StoreStats
}

type scanEntry struct {
	ver Version
	use int64 // clock at last touch
}

func newScanStore(capacity int64) *scanStore {
	return &scanStore{capacity: capacity, resident: make(map[Key]*scanEntry)}
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

func (s *scanStore) MissingBytes(refs []Ref) int64 {
	var missing int64
	for _, r := range refs {
		if _, ok := s.resident[r.Key()]; !ok {
			missing += r.Bytes
		}
	}
	return missing
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
			s.stats.Rejected++
			return nil
		}
		s.bytes += v.Ref.Bytes - e.ver.Ref.Bytes
		e.ver = v
		s.stats.Published++
		s.stats.Superseded++
		s.stats.PublishedBytes += v.Ref.Bytes
		return s.enforce(key)
	}
	if s.capacity > 0 && v.Ref.Bytes > s.capacity {
		s.stats.Rejected++
		return nil
	}
	s.resident[key] = &scanEntry{ver: v, use: s.seq}
	s.bytes += v.Ref.Bytes
	s.stats.Published++
	s.stats.PublishedBytes += v.Ref.Bytes
	return s.enforce(key)
}

func (s *scanStore) enforce(keep Key) []Version {
	if s.capacity <= 0 || s.bytes <= s.capacity {
		return nil
	}
	var evicted []Version
	for s.bytes > s.capacity {
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
		s.stats.EvictedBytes += oldest.ver.Ref.Bytes
		evicted = append(evicted, oldest.ver)
	}
	return evicted
}

func (s *scanStore) Keys() []string {
	keys := make([]string, 0, len(s.resident))
	for k := range s.resident {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	return keys
}

// Fuzzed op encoding for FuzzStoreLRU. The first byte picks the capacity;
// every following 4 bytes are one op: [code, key, a, b], up to maxFuzzOps.
// The fuzzer minimizes each new input in time quadratic in its length, so
// the op budget is kept to what sixteen keys need to cycle the LRU.
const maxFuzzOps = 64

const (
	opPublish = iota // a = bytes, b = time | workflow | task; code&0x80 = non-empty dst
	opContains
	opHolds
	opMissing // refs at keys key, a, b with sizes a, b, key
	opCount
)

var (
	fuzzCapacities = []int64{0, 10, 100, 1000}
	fuzzNames      = []string{"a", "b", "c", "d"}
	fuzzWorkflows  = []string{"wfA", "wfB", "wfC"}
	fuzzTasks      = []string{"t0", "t1"}
)

func fuzzRef(sel, size byte) Ref {
	return Ref{Name: fuzzNames[sel%4], Partition: int(sel/4) % 4, Bytes: int64(size)}
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
// every op: evicted versions in order, probe results, counters, resident
// bytes, keys and every partition's lineage record.
func FuzzStoreLRU(f *testing.F) {
	// Key selectors: 0 = a#0, 1 = b#0, 2 = c#0, 3 = d#0, 4 = a#1, ...
	// Lineage byte: time in bits 0-1, workflow in 2-3, task in 4.
	f.Add(lruOps(2, // TestStoreLRUEviction: a, b, c at 40B in 100B; touch b; publish d
		[4]byte{opPublish, 0, 40, 0}, [4]byte{opPublish, 1, 40, 1}, [4]byte{opPublish, 2, 40, 2},
		[4]byte{opContains, 1, 0, 0}, [4]byte{opPublish, 3, 40, 3}))
	f.Add(lruOps(1, [4]byte{opPublish, 0, 11, 1}, [4]byte{opHolds, 0, 0, 0})) // oversized
	f.Add(lruOps(0,                                                           // unbounded
		[4]byte{opPublish, 0, 255, 0}, [4]byte{opPublish, 4, 255, 1}, [4]byte{opPublish, 8, 255, 2},
		[4]byte{opPublish, 12, 255, 3}, [4]byte{opMissing, 0, 1, 4}))
	f.Add(lruOps(0, // TestStoreLineageTieBreak: later, older, equal-time higher and lower workflow
		[4]byte{opPublish, 0, 8, 2 | 1<<2}, [4]byte{opPublish, 0, 8, 1 | 2<<2},
		[4]byte{opPublish, 0, 8, 2 | 2<<2}, [4]byte{opPublish, 0, 8, 2 | 0<<2},
		[4]byte{opPublish, 0, 8, 2 | 2<<2 | 1<<4}))
	f.Add(lruOps(2, // TestStoreRejectedPublishStillTouches
		[4]byte{opPublish, 0, 40, 1}, [4]byte{opPublish, 1, 40, 2},
		[4]byte{opPublish, 0, 40, 0}, [4]byte{opPublish, 2, 40, 3}))
	f.Add(lruOps(2, // TestHoldsDoesNotPerturbLRU
		[4]byte{opPublish, 0, 40, 1}, [4]byte{opPublish, 1, 40, 2},
		[4]byte{opHolds, 0, 0, 0}, [4]byte{opMissing, 0, 40, 40}, [4]byte{opPublish, 2, 40, 3}))
	f.Add(lruOps(2, // superseding growth past the bound evicts everything else
		[4]byte{opPublish, 0, 30, 0}, [4]byte{opPublish, 1, 30, 0}, [4]byte{opPublish, 2, 30, 0},
		[4]byte{opPublish | 0x80, 1, 99, 1}, [4]byte{opPublish, 3, 1, 2}))
	f.Add(lruOps(3, // many small publishes in a large store, with probes
		[4]byte{opPublish, 0, 200, 0}, [4]byte{opPublish, 5, 250, 0}, [4]byte{opPublish, 10, 220, 1},
		[4]byte{opContains, 0, 0, 0}, [4]byte{opContains, 7, 0, 0}, [4]byte{opPublish, 15, 240, 2},
		[4]byte{opPublish | 0x80, 3, 230, 3}, [4]byte{opPublish, 5, 10, 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if max := 1 + 4*maxFuzzOps; len(data) > max {
			data = data[:max] // longer runs only slow minimization down
		}
		capacity := fuzzCapacities[int(data[0])%len(fuzzCapacities)]
		got, want := NewStore(capacity), newScanStore(capacity)
		var buf []Version
		marker := Version{Workflow: "(caller)"}
		for i, ops := 0, data[1:]; len(ops) >= 4; i, ops = i+1, ops[4:] {
			code, key, a, b := ops[0], ops[1], ops[2], ops[3]
			switch code % opCount {
			case opPublish:
				v := fuzzVersion(key, a, b)
				dst := buf[:0]
				if code&0x80 != 0 {
					dst = append(dst, marker)
				}
				buf = got.Publish(v, dst)
				ev := buf[len(dst):]
				if code&0x80 != 0 && buf[0] != marker {
					t.Fatalf("op %d: Publish overwrote the caller's dst prefix", i)
				}
				if wantEv := want.Publish(v); !slices.Equal(ev, wantEv) {
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
			case opMissing:
				refs := []Ref{fuzzRef(key, a), fuzzRef(a, b), fuzzRef(b, key)}
				parts := []Part{Intern(refs[0]), Intern(refs[1]), Intern(refs[2])}
				if g, w := got.MissingBytes(parts), want.MissingBytes(refs); g != w {
					t.Fatalf("op %d: MissingBytes(%v) = %d, want %d", i, refs, g, w)
				}
			}
			if g, w := got.Stats(), want.stats; g != w {
				t.Fatalf("op %d: Stats = %+v, want %+v", i, g, w)
			}
			if g, w := got.Resident(), want.bytes; g != w {
				t.Fatalf("op %d: Resident = %d, want %d", i, g, w)
			}
			if g, w := got.Len(), len(want.resident); g != w {
				t.Fatalf("op %d: Len = %d, want %d", i, g, w)
			}
			if g, w := got.Keys(), want.Keys(); !slices.Equal(g, w) {
				t.Fatalf("op %d: Keys = %v, want %v", i, g, w)
			}
			for sel := byte(0); sel < 16; sel++ {
				r := fuzzRef(sel, 0)
				gv, gok := got.Version(id(r))
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
	s := NewStore(resident * 64)
	var buf []Version
	i := 0
	publish := func() {
		v := ring[i%len(ring)]
		v.Time = float64(i)
		buf = s.Publish(v, buf[:0])
		i++
	}
	for range 2 * len(ring) {
		publish()
	}
	if got := testing.AllocsPerRun(1000, func() {
		publish()
		if len(buf) != 1 {
			t.Fatalf("publish evicted %d, want 1", len(buf))
		}
	}); got != 0 {
		t.Errorf("evicting publish allocates %.2f per run, budget 0", got)
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
			s := NewStore(int64(resident) * 64)
			var buf []Version
			for i, v := range ring {
				v.Time = float64(i)
				buf = s.Publish(v, buf[:0])
			}
			b.ReportAllocs()
			i := len(ring)
			for b.Loop() {
				v := ring[i%len(ring)]
				v.Time = float64(i)
				buf = s.Publish(v, buf[:0])
				i++
			}
			if s.Len() != resident {
				b.Fatalf("Len = %d, want %d", s.Len(), resident)
			}
		})
	}
}
