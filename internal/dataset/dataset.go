// Package dataset names the data that workflow stages exchange. The rest
// of the stack models *how much* data moves (anonymous InputBytes /
// OutputBytes on a TaskSpec); this package models *which* data it is —
// a named dataset split into partitions with modelled sizes — so routing
// tiers can price placement (a site already holding a partition charges
// nothing to read it) and cache published intermediates across workflows
// (ensemble members sharing assimilation output, traffic windows sharing
// map-match state).
//
// Lineage follows the engine's deterministic total order: when two
// workflows publish the same partition, the winner resolves by the
// standard (time, workflow id, name) tie-break, so concurrent runs
// converge on one byte-identical store state regardless of goroutine
// interleaving.
package dataset

import (
	"fmt"
	"unique"
)

// Ref names one partition of a dataset together with its modelled size.
// A Ref is a value: two refs with the same Name and Partition denote the
// same data wherever they appear (across tasks, workflows, and sites).
type Ref struct {
	Name      string // dataset name, e.g. "weather/analysis"
	Partition int    // partition index within the dataset
	Bytes     int64  // modelled partition size
}

// Key identifies a partition independent of its size. Keys are interned
// once, where a partition enters the system (Intern), not hashed per
// lookup: every store and catalog is keyed by the resulting ID, so the
// serving path compares pointers instead of hashing dataset names.
type Key struct {
	Name      string
	Partition int
}

func (k Key) String() string { return fmt.Sprintf("%s#%d", k.Name, k.Partition) }

// Key returns the identity of this partition.
func (r Ref) Key() Key { return Key{Name: r.Name, Partition: r.Partition} }

// ID is an interned Key: two IDs are equal exactly when their keys are,
// and comparing or hashing one costs a pointer. IDs carry no order; render
// them through Value when something must be sorted or printed.
type ID = unique.Handle[Key]

// Part is a partition resolved for serving: the Ref, and beside it the ID
// stores and catalogs key it by. The Ref keeps its value semantics.
type Part struct {
	Ref Ref
	ID  ID
}

// Intern resolves r to a Part. It hashes r's key, so call it where a
// partition enters the system (workflow submission, placement), never
// per lookup.
func Intern(r Ref) Part { return Part{Ref: r, ID: unique.Make(r.Key())} }

// Single returns the whole dataset as its only partition.
func Single(name string, bytes int64) Ref {
	return Ref{Name: name, Partition: 0, Bytes: bytes}
}

// Sum returns the total modelled bytes across refs.
func Sum(refs []Ref) int64 {
	var total int64
	for _, r := range refs {
		total += r.Bytes
	}
	return total
}

// Version is one published instance of a partition: the lineage record a
// store keeps alongside the bytes. Publishing the same partition again
// replaces the version only if the newcomer supersedes the resident one
// (see Supersedes).
type Version struct {
	Ref      Ref
	ID       ID      // Ref's interned key (Intern); the store keys by it
	Time     float64 // modelled publish time
	Workflow string  // publishing workflow id
	Task     string  // producing task (informational)
}

// Supersedes reports whether version a replaces version b for the same
// partition, by the standard (time, workflow id, name) tie-break: the
// later publish wins; equal times resolve to the lexicographically
// greater workflow id, then the greater producing task name. The order is
// total, so concurrent publishers converge on the same winner no matter
// the arrival interleaving.
func Supersedes(a, b Version) bool {
	if a.Time != b.Time {
		return a.Time > b.Time
	}
	if a.Workflow != b.Workflow {
		return a.Workflow > b.Workflow
	}
	return a.Task > b.Task
}

// StoreStats counts store activity (modelled run totals).
type StoreStats struct {
	Hits      int // Contains probes (Stage's included) that found a part
	Misses    int // probes that did not
	Evictions int // parts evicted by the byte or entry bound
}

// entry is one resident partition, linked into the store's recency list.
type entry struct {
	ver        Version
	prev, next *entry
}

// Store is the one bounded LRU the serving tiers ship bytes into: each
// fleet site's dataset store, each region's dataset store and each
// region's bitstream image store are Stores. It also orders FPGA
// residency: each fleet site's resident bitstreams and each stream
// device's resident kernels are entry-bounded Stores beside the device
// slots that record where they are loaded (Oldest names the LRU victim,
// Evict drops it as its slot is cleared). It is bounded in bytes, in
// entries, or both (0 = unbounded); Stage ships what it lacks over a
// Link and Estimate prices the same shipment without touching it. A
// Store is not safe for concurrent use; callers hold their own site or
// region lock.
//
// Recency is an intrusive doubly linked list under a sentinel, so a
// touch (Contains, Publish) and an eviction are both O(1) regardless of
// how many parts are resident. A publish never evicts the part it just
// admitted: that key is always the newest, so eviction stops when only
// it remains. Evicted entries are recycled for later inserts and evicted
// versions go to a buffer the store reuses, so a steady-state publish
// allocates nothing. A Store must be created with NewStore and not
// copied.
type Store struct {
	capacity int64 // max resident bytes; 0 = unbounded
	slots    int   // max resident entries; 0 = unbounded
	resident map[ID]*entry
	lru      entry  // sentinel: lru.next is the oldest, lru.prev the newest
	free     *entry // evicted entries awaiting reuse, linked through next
	bytes    int64
	evicted  []Version // the last admission's evictions (Publish's result)
	stats    StoreStats
}

// NewStore returns an empty store bounded to capacity bytes and to slots
// entries (0 = unbounded, for either).
func NewStore(capacity int64, slots int) *Store {
	s := &Store{capacity: capacity, slots: slots, resident: make(map[ID]*entry)}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// Len returns the number of resident partitions.
func (s *Store) Len() int { return len(s.resident) }

// Stats returns a copy of the activity counters.
func (s *Store) Stats() StoreStats { return s.stats }

// Contains reports whether the partition is resident, counting the probe
// and refreshing its LRU position on a hit.
func (s *Store) Contains(id ID) bool {
	e, ok := s.resident[id]
	if ok {
		s.touch(e)
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return ok
}

// Holds reports residency without touching LRU order or counters — the
// pure read routing estimates use, so pricing candidate sites does not
// perturb the store state the chosen site will see. A nil store holds
// nothing, so its Estimate prices a completely cold store.
func (s *Store) Holds(id ID) bool {
	return s != nil && s.resident[id] != nil
}

// Link prices shipping part p into a store, the transfer starting at
// modelled time at. ok=false means the part cannot be shipped then; the
// seconds are then the price of doing without it, which Estimate charges
// and Stage does not.
type Link func(p Part, at float64) (seconds float64, ok bool)

// Fetch reports one part a Stage call found missing and offered to its
// link.
type Fetch struct {
	Part    Part
	At      float64 // modelled start of the transfer
	Seconds float64 // the link's price
	Shipped bool    // false: the link refused the part; nothing was admitted
	// Evicted lists the versions admitting the part evicted, oldest first.
	// The store reuses the slice: it is valid only during the callback.
	Evicted []Version
}

// Stage ships every part of parts the store lacks over link, one transfer
// after another from at, admits each as a version published at its
// transfer's start by workflow by, and reports each offered part to
// fetched. Resident parts are touched and cost
// nothing, and a part listed twice ships at most once. It returns the
// seconds and bytes shipped.
func (s *Store) Stage(parts []Part, at float64, by string, link Link, fetched func(Fetch)) (seconds float64, bytes int64) {
	for i, p := range parts {
		if s.Contains(p.ID) || listed(parts[:i], p.ID) {
			continue
		}
		x := Fetch{Part: p, At: at + seconds}
		x.Seconds, x.Shipped = link(p, x.At)
		if x.Shipped {
			x.Evicted = s.Publish(Version{Ref: p.Ref, ID: p.ID, Time: x.At, Workflow: by, Task: "(fetch)"})
			seconds += x.Seconds
			bytes += p.Ref.Bytes
		}
		fetched(x)
	}
	return seconds, bytes
}

// Estimate prices what Stage would charge for parts, leaving the store
// untouched: the link's seconds for every distinct missing part, refused
// parts included. Every part is priced at at, not at its place in the
// queue. Over a link that never refuses and ignores the time, Stage
// charges exactly this, unless the shipment evicts a part it has yet to
// reach (the store is too small for the call), which Stage then ships
// too.
func (s *Store) Estimate(parts []Part, at float64, link Link) float64 {
	seconds := 0.0
	for i, p := range parts {
		if s.Holds(p.ID) || listed(parts[:i], p.ID) {
			continue
		}
		dt, _ := link(p, at)
		seconds += dt
	}
	return seconds
}

// listed reports whether id is among parts.
func listed(parts []Part, id ID) bool {
	for _, q := range parts {
		if q.ID == id {
			return true
		}
	}
	return false
}

// Publish admits a version, evicting least-recently-used parts if a bound
// requires it, and returns the evicted versions (oldest first) in a
// buffer the store reuses: the result is valid only until the next
// Publish or Stage. A version already resident is replaced only when the
// newcomer supersedes it per the (time, workflow id, name) tie-break; a
// rejected publish still refreshes the winner's LRU position (the data
// was just produced again, so it is hot either way). v.ID must be
// v.Ref's ID.
func (s *Store) Publish(v Version) []Version {
	s.evicted = s.evicted[:0]
	if e, ok := s.resident[v.ID]; ok {
		s.touch(e)
		if !Supersedes(v, e.ver) {
			return s.evicted
		}
		s.bytes += v.Ref.Bytes - e.ver.Ref.Bytes
		e.ver = v
		return s.enforce(e)
	}
	if s.capacity > 0 && v.Ref.Bytes > s.capacity {
		// Larger than the whole store: never resident.
		return s.evicted
	}
	e := s.free
	if e != nil {
		s.free = e.next
	} else {
		e = new(entry)
	}
	e.ver = v
	s.pushNewest(e)
	s.resident[v.ID] = e
	s.bytes += v.Ref.Bytes
	return s.enforce(e)
}

// touch moves a resident entry to the newest end of the recency list.
func (s *Store) touch(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	s.pushNewest(e)
}

func (s *Store) pushNewest(e *entry) {
	e.prev, e.next = s.lru.prev, &s.lru
	s.lru.prev.next = e
	s.lru.prev = e
}

// enforce evicts least-recently-used parts from the oldest end until both
// bounds hold, collecting their versions in s.evicted. keep, the entry
// just published, is the newest, so reaching it means nothing else is
// left to evict.
func (s *Store) enforce(keep *entry) []Version {
	for (s.capacity > 0 && s.bytes > s.capacity) || (s.slots > 0 && len(s.resident) > s.slots) {
		e := s.lru.next
		if e == keep {
			break
		}
		s.evicted = append(s.evicted, e.ver)
		s.unlink(e)
	}
	return s.evicted
}

// unlink evicts a resident entry: off the recency list and out of the
// index, counted as an eviction, and onto the free list for reuse.
func (s *Store) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(s.resident, e.ver.ID)
	s.bytes -= e.ver.Ref.Bytes
	s.stats.Evictions++
	*e = entry{next: s.free}
	s.free = e
}

// Oldest returns the least recently used resident version: the one the
// next bound-driven eviction would take.
func (s *Store) Oldest() (Version, bool) {
	if s.lru.next == &s.lru {
		return Version{}, false
	}
	return s.lru.next.ver, true
}

// Evict drops one resident part, counted as an eviction, and reports
// whether it was resident. Callers whose store mirrors state held
// elsewhere (a device slot) use it to drop an entry the bounds would not.
func (s *Store) Evict(id ID) bool {
	e, ok := s.resident[id]
	if ok {
		s.unlink(e)
	}
	return ok
}

// Catalog is the set of partitions known to a serving tier: placed or
// published somewhere. Known refs are the ones locality pricing and
// fetches are scoped to; an unknown ref is outside source data, equally
// far from everywhere.
type Catalog map[ID]struct{}

// Add records a partition as known. The catalog only grows, and most
// adds repeat a known partition, so it probes before it writes.
func (c Catalog) Add(id ID) {
	if _, ok := c[id]; !ok {
		c[id] = struct{}{}
	}
}

// Known filters parts down to the catalogued ones. It returns parts
// itself, allocating nothing, when every part is known, and nil when
// none is; the result must not be modified.
func (c Catalog) Known(parts []Part) []Part {
	for i, p := range parts {
		if _, ok := c[p.ID]; ok {
			continue
		}
		out := parts[:i:i]
		for _, q := range parts[i+1:] {
			if _, ok := c[q.ID]; ok {
				out = append(out, q)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	return parts
}
