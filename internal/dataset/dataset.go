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
	"sort"
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

func (r Ref) String() string {
	return fmt.Sprintf("%s#%d(%dB)", r.Name, r.Partition, r.Bytes)
}

// Single returns the whole dataset as its only partition.
func Single(name string, bytes int64) Ref {
	return Ref{Name: name, Partition: 0, Bytes: bytes}
}

// Partitioned splits a dataset of total bytes into n equal partitions,
// spreading any remainder one byte each over the first partitions so the
// sum is exact and the split deterministic.
func Partitioned(name string, total int64, n int) []Ref {
	if n < 1 {
		n = 1
	}
	each := total / int64(n)
	rem := total % int64(n)
	refs := make([]Ref, n)
	for i := range refs {
		b := each
		if int64(i) < rem {
			b++
		}
		refs[i] = Ref{Name: name, Partition: i, Bytes: b}
	}
	return refs
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
	Hits           int   // Contains/MissingBytes probes that found a partition
	Misses         int   // probes that did not
	Published      int   // publishes accepted (new or superseding)
	Superseded     int   // publishes that replaced a resident version
	Rejected       int   // publishes dropped by the lineage tie-break
	Evictions      int   // partitions evicted by the byte bound
	PublishedBytes int64 // bytes accepted into the store
	EvictedBytes   int64 // bytes evicted by the byte bound
}

// entry is one resident partition, linked into the store's recency list.
type entry struct {
	ver        Version
	prev, next *entry
}

// Store is a bytes-bounded LRU of dataset partitions — the site-local
// dataset cache (fleet tier) and the regional artifact-store extension
// (region tier) both embed one. The zero capacity means unbounded. A
// Store is not safe for concurrent use; callers hold their own site or
// region lock, matching the bitstream cache it sits beside.
//
// Recency is an intrusive doubly linked list under a sentinel, so a
// touch (Contains, Publish) and an eviction are both O(1) regardless of
// how many partitions are resident. A publish never evicts the partition
// it just admitted: that key is always the newest, so eviction stops when
// only it remains. Evicted entries are recycled for later inserts and
// evicted versions are appended to a caller-owned buffer (see Publish),
// so a steady-state publish allocates nothing. A Store must be created
// with NewStore and not copied.
type Store struct {
	capacity int64 // max resident bytes; 0 = unbounded
	resident map[ID]*entry
	lru      entry  // sentinel: lru.next is the oldest, lru.prev the newest
	free     *entry // evicted entries awaiting reuse, linked through next
	bytes    int64
	stats    StoreStats
}

// NewStore returns an empty store bounded to capacity bytes (0 = unbounded).
func NewStore(capacity int64) *Store {
	s := &Store{capacity: capacity, resident: make(map[ID]*entry)}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// Capacity returns the byte bound (0 = unbounded).
func (s *Store) Capacity() int64 { return s.capacity }

// Resident returns the bytes currently held.
func (s *Store) Resident() int64 { return s.bytes }

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
// perturb the store state the chosen site will see.
func (s *Store) Holds(id ID) bool {
	_, ok := s.resident[id]
	return ok
}

// MissingBytes sums the bytes of parts not resident, without touching LRU
// order or counters (an estimate over candidate sites must not perturb
// the store). Resident partitions contribute zero: the site already
// holds them.
func (s *Store) MissingBytes(parts []Part) int64 {
	var missing int64
	for _, p := range parts {
		if _, ok := s.resident[p.ID]; !ok {
			missing += p.Ref.Bytes
		}
	}
	return missing
}

// Version returns the lineage record of a resident partition.
func (s *Store) Version(id ID) (Version, bool) {
	e, ok := s.resident[id]
	if !ok {
		return Version{}, false
	}
	return e.ver, true
}

// Publish admits a version, evicting least-recently-used partitions if
// the byte bound requires it, and returns dst with the evicted versions
// appended (oldest first). The caller owns dst: passing a reused buffer
// (buf = s.Publish(v, buf[:0])) keeps an evicting publish off the heap.
// A version already resident is replaced only when the newcomer
// supersedes it per the (time, workflow id, name) tie-break; a rejected
// publish still refreshes the winner's LRU position (the data was just
// produced again, so it is hot either way). v.ID must be v.Ref's ID.
func (s *Store) Publish(v Version, dst []Version) []Version {
	if e, ok := s.resident[v.ID]; ok {
		s.touch(e)
		if !Supersedes(v, e.ver) {
			s.stats.Rejected++
			return dst
		}
		s.bytes += v.Ref.Bytes - e.ver.Ref.Bytes
		e.ver = v
		s.stats.Published++
		s.stats.Superseded++
		s.stats.PublishedBytes += v.Ref.Bytes
		return s.enforce(e, dst)
	}
	if s.capacity > 0 && v.Ref.Bytes > s.capacity {
		// Larger than the whole store: never resident, count as rejected
		// so the caller sees the publish went nowhere.
		s.stats.Rejected++
		return dst
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
	s.stats.Published++
	s.stats.PublishedBytes += v.Ref.Bytes
	return s.enforce(e, dst)
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

// enforce evicts least-recently-used partitions from the oldest end until
// the byte bound holds, appending their versions to dst. keep, the entry
// just published, is the newest, so reaching it means nothing else is
// left to evict.
func (s *Store) enforce(keep *entry, dst []Version) []Version {
	if s.capacity <= 0 {
		return dst
	}
	for s.bytes > s.capacity {
		e := s.lru.next
		if e == keep {
			break
		}
		e.prev.next, e.next.prev = e.next, e.prev
		delete(s.resident, e.ver.ID)
		s.bytes -= e.ver.Ref.Bytes
		s.stats.Evictions++
		s.stats.EvictedBytes += e.ver.Ref.Bytes
		dst = append(dst, e.ver)
		*e = entry{next: s.free}
		s.free = e
	}
	return dst
}

// Keys returns the resident partition keys rendered in sorted order
// (tests and state digests).
func (s *Store) Keys() []string {
	keys := make([]string, 0, len(s.resident))
	for k := range s.resident {
		keys = append(keys, k.Value().String())
	}
	sort.Strings(keys)
	return keys
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
