package dataset

import (
	"fmt"
	"slices"
	"testing"
)

// id interns r's key, as a serving tier does where r enters it.
func id(r Ref) ID { return Intern(r).ID }

func TestPartitioned(t *testing.T) {
	refs := Partitioned("pts", 10, 3)
	if len(refs) != 3 {
		t.Fatalf("got %d partitions, want 3", len(refs))
	}
	// 10 bytes over 3 partitions: the remainder spreads over the first.
	want := []int64{4, 3, 3}
	for i, r := range refs {
		if r.Name != "pts" || r.Partition != i {
			t.Errorf("partition %d: got %v", i, r)
		}
		if r.Bytes != want[i] {
			t.Errorf("partition %d: %d bytes, want %d", i, r.Bytes, want[i])
		}
	}
	if Sum(refs) != 10 {
		t.Errorf("Sum = %d, want 10", Sum(refs))
	}
	if got := Partitioned("x", 5, 0); len(got) != 1 || got[0].Bytes != 5 {
		t.Errorf("Partitioned with 0 shards = %v, want one whole ref", got)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Name: "pts", Partition: 2}
	if k.String() != "pts#2" {
		t.Errorf("Key.String() = %q", k.String())
	}
	r := Ref{Name: "pts", Partition: 2, Bytes: 8}
	if r.Key() != k {
		t.Errorf("Ref.Key() = %v, want %v", r.Key(), k)
	}
}

// TestInternIdentity pins the ID model: equal keys intern to one ID
// whatever the declared size, distinct keys never share one, and the ID
// renders back to its key.
func TestInternIdentity(t *testing.T) {
	a := Intern(Ref{Name: "pts", Partition: 2, Bytes: 8})
	if b := Intern(Ref{Name: "pts", Partition: 2, Bytes: 9}); a.ID != b.ID {
		t.Error("same key, different size: IDs differ")
	}
	if c := Intern(Ref{Name: "pts", Partition: 3, Bytes: 8}); a.ID == c.ID {
		t.Error("distinct keys share an ID")
	}
	if got := a.ID.Value().String(); got != "pts#2" {
		t.Errorf("ID renders %q, want pts#2", got)
	}
}

// TestCatalogKnown pins the catalog filter: the input slice itself when
// every part is known (no allocation), nil when none is, and the known
// parts in input order otherwise, leaving the input untouched.
func TestCatalogKnown(t *testing.T) {
	a, b, c := Intern(Ref{Name: "a", Bytes: 1}), Intern(Ref{Name: "b", Bytes: 2}), Intern(Ref{Name: "c", Bytes: 3})
	cat := Catalog{}
	cat.Add(a.ID)
	cat.Add(c.ID)
	all := []Part{a, c}
	if got := cat.Known(all); &got[0] != &all[0] || len(got) != 2 {
		t.Errorf("all known: got %v, want the input slice", got)
	}
	if got := testing.AllocsPerRun(100, func() { cat.Known(all) }); got != 0 {
		t.Errorf("all-known filter allocates %.1f per run, budget 0", got)
	}
	if got := cat.Known([]Part{b}); got != nil {
		t.Errorf("none known: got %v, want nil", got)
	}
	mixed := []Part{a, b, c}
	got := cat.Known(mixed)
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Errorf("mixed: got %v, want [a c]", got)
	}
	if mixed[1] != b {
		t.Error("Known rewrote its input")
	}
	if got := cat.Known([]Part{b, a}); len(got) != 1 || got[0] != a {
		t.Errorf("unknown first: got %v, want [a]", got)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(100, 0)
	if s.Capacity() != 100 {
		t.Fatalf("Capacity = %d", s.Capacity())
	}
	a := Ref{Name: "a", Bytes: 40}
	b := Ref{Name: "b", Bytes: 40}
	c := Ref{Name: "c", Bytes: 40}
	for i, r := range []Ref{a, b, c} {
		s.Publish(Version{Ref: r, ID: id(r), Time: float64(i)})
	}
	// c's publish must evict a (the oldest) and keep b and c.
	if s.Holds(id(a)) {
		t.Error("a survived eviction")
	}
	if !s.Holds(id(b)) || !s.Holds(id(c)) {
		t.Error("b or c missing after eviction")
	}
	if s.Resident() != 80 || s.Len() != 2 {
		t.Errorf("Resident=%d Len=%d, want 80/2", s.Resident(), s.Len())
	}
	// Touching b (Contains counts as use) protects it from the next evict.
	if !s.Contains(id(b)) {
		t.Fatal("b not contained")
	}
	d := Ref{Name: "d", Bytes: 40}
	evicted := s.Publish(Version{Ref: d, ID: id(d), Time: 3})
	if len(evicted) != 1 || evicted[0].Ref.Name != "c" {
		t.Errorf("evicted %v, want c", evicted)
	}
	st := s.Stats()
	if st.Evictions != 2 || st.Published != 4 {
		t.Errorf("stats %+v, want 2 evictions, 4 publishes", st)
	}
}

func TestStoreOversizedRejected(t *testing.T) {
	s := NewStore(10, 0)
	huge := Ref{Name: "huge", Bytes: 11}
	if ev := s.Publish(Version{Ref: huge, ID: id(huge), Time: 1}); len(ev) != 0 {
		t.Errorf("oversized publish evicted %v", ev)
	}
	if s.Holds(id(huge)) || s.Len() != 0 {
		t.Error("oversized ref was admitted")
	}
	if s.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", s.Stats().Rejected)
	}
}

func TestStoreUnbounded(t *testing.T) {
	s := NewStore(0, 0)
	for i := 0; i < 64; i++ {
		r := Ref{Name: "r", Partition: i, Bytes: 1 << 20}
		s.Publish(Version{Ref: r, ID: id(r), Time: float64(i)})
	}
	if s.Len() != 64 || s.Stats().Evictions != 0 {
		t.Errorf("unbounded store evicted: len=%d stats=%+v", s.Len(), s.Stats())
	}
}

// byteLink prices a transfer at one second per 10 bytes and ships
// everything.
func byteLink(p Part, _ float64) (float64, bool) { return float64(p.Ref.Bytes) / 10, true }

// TestStoreEstimate: Estimate charges the link's price for each distinct
// missing part, refused ones included, and leaves the store untouched.
func TestStoreEstimate(t *testing.T) {
	s := NewStore(0, 2)
	a := Ref{Name: "a", Bytes: 30}
	b := Ref{Name: "b", Bytes: 50}
	c := Ref{Name: "c", Bytes: 70}
	s.Publish(Version{Ref: a, ID: id(a), Time: 1})
	s.Publish(Version{Ref: b, ID: id(b), Time: 2})
	if got := s.Estimate([]Part{Intern(a), Intern(c), Intern(c)}, 0, byteLink); got != 7 {
		t.Errorf("Estimate = %g, want 7 (c once, a resident)", got)
	}
	if got := s.Estimate(nil, 0, byteLink); got != 0 {
		t.Errorf("Estimate(nil) = %g", got)
	}
	refuse := func(p Part, _ float64) (float64, bool) { return 0.25, false }
	if got := s.Estimate([]Part{Intern(c)}, 0, refuse); got != 0.25 {
		t.Errorf("refused Estimate = %g, want the refusal price 0.25", got)
	}
	// Untouched: no probe was counted, and a is still the oldest.
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Estimate moved counters: %+v", st)
	}
	if ev := s.Publish(Version{Ref: c, ID: id(c), Time: 3}); len(ev) != 1 || ev[0].Ref != a {
		t.Errorf("evicted %v, want a (Estimate must not refresh)", ev)
	}
}

// TestStoreStage: Stage ships the missing parts one after another from
// its start time, publishes each at its transfer's start, reports every
// offered part with what its admission evicted, skips refused and
// repeated parts, and bills only what it shipped.
func TestStoreStage(t *testing.T) {
	s := NewStore(0, 2)
	a := Ref{Name: "a", Bytes: 30}
	b := Ref{Name: "b", Bytes: 50}
	c := Ref{Name: "c", Bytes: 70}
	d := Ref{Name: "d", Bytes: 90}
	s.Publish(Version{Ref: a, ID: id(a), Time: 0})
	link := func(p Part, at float64) (float64, bool) {
		return float64(p.Ref.Bytes) / 10, p.Ref.Name != "d"
	}
	var got []Fetch
	seconds, bytes := s.Stage([]Part{Intern(b), Intern(a), Intern(b), Intern(d), Intern(c)}, 10, "wf", link,
		func(x Fetch) {
			x.Evicted = slices.Clone(x.Evicted)
			got = append(got, x)
		})
	if seconds != 12 || bytes != 120 {
		t.Fatalf("Stage = %g s, %d B; want 12 s and 120 B (b and c)", seconds, bytes)
	}
	// b ships at 10 s; a, then b again, are hits that refresh them; d is
	// refused at 15 s; c ships at 15 s and evicts a, now the oldest.
	want := []Fetch{
		{Part: Intern(b), At: 10, Seconds: 5, Shipped: true},
		{Part: Intern(d), At: 15, Seconds: 9},
		{Part: Intern(c), At: 15, Seconds: 7, Shipped: true,
			Evicted: []Version{{Ref: a, ID: id(a), Time: 0}}},
	}
	if !slices.EqualFunc(got, want, func(x, y Fetch) bool {
		return x.Part == y.Part && x.At == y.At && x.Seconds == y.Seconds &&
			x.Shipped == y.Shipped && slices.Equal(x.Evicted, y.Evicted)
	}) {
		t.Fatalf("fetches = %+v\nwant %+v", got, want)
	}
	if v, ok := s.Version(id(c)); !ok || v.Time != 15 || v.Workflow != "wf" || v.Task != "(fetch)" {
		t.Errorf("c's version = %+v/%v, want published at 15 s by wf", v, ok)
	}
	if s.Holds(id(d)) || !s.Holds(id(b)) || s.Len() != 2 {
		t.Errorf("resident %v, want [b c]", s.Keys())
	}
	if st := s.Stats(); st.Hits != 2 || st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("stats %+v, want 2 hits (a, then b), 3 misses (b, d, c), 1 eviction", st)
	}
}

func TestStoreLineageTieBreak(t *testing.T) {
	s := NewStore(0, 0)
	r := Ref{Name: "model", Bytes: 8}
	s.Publish(Version{Ref: r, ID: id(r), Time: 2, Workflow: "wfB", Task: "t"})
	// An older publish must not supersede the resident version.
	s.Publish(Version{Ref: r, ID: id(r), Time: 1, Workflow: "wfZ", Task: "t"})
	if v, ok := s.Version(id(r)); !ok || v.Workflow != "wfB" {
		t.Errorf("older publish superseded: %+v", v)
	}
	// Same time: the higher workflow id wins, deterministically.
	s.Publish(Version{Ref: r, ID: id(r), Time: 2, Workflow: "wfC", Task: "t"})
	if v, _ := s.Version(id(r)); v.Workflow != "wfC" {
		t.Errorf("tie-break ignored workflow id: %+v", v)
	}
	s.Publish(Version{Ref: r, ID: id(r), Time: 2, Workflow: "wfA", Task: "t"})
	if v, _ := s.Version(id(r)); v.Workflow != "wfC" {
		t.Errorf("lower workflow id superseded: %+v", v)
	}
	if sup := s.Stats().Superseded; sup != 1 {
		t.Errorf("Superseded = %d, want 1", sup)
	}
}

func TestSupersedes(t *testing.T) {
	base := Version{Time: 1, Workflow: "b", Task: "m"}
	cases := []struct {
		a    Version
		want bool
	}{
		{Version{Time: 2, Workflow: "a", Task: "a"}, true},
		{Version{Time: 0.5, Workflow: "z", Task: "z"}, false},
		{Version{Time: 1, Workflow: "c", Task: "a"}, true},
		{Version{Time: 1, Workflow: "a", Task: "z"}, false},
		{Version{Time: 1, Workflow: "b", Task: "n"}, true},
		{Version{Time: 1, Workflow: "b", Task: "a"}, false},
	}
	for i, c := range cases {
		if got := Supersedes(c.a, base); got != c.want {
			t.Errorf("case %d: Supersedes(%+v) = %v, want %v", i, c.a, got, c.want)
		}
	}
}

func TestStoreKeysSorted(t *testing.T) {
	s := NewStore(0, 0)
	for _, n := range []string{"c", "a", "b"} {
		for p := 1; p >= 0; p-- {
			r := Ref{Name: n, Partition: p, Bytes: 1}
			s.Publish(Version{Ref: r, ID: id(r), Time: 1})
		}
	}
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys() not sorted: %v before %v", keys[i-1], keys[i])
		}
	}
	if len(keys) != 6 {
		t.Fatalf("len(Keys()) = %d, want 6", len(keys))
	}
}

// TestStoreRejectedPublishStillTouches pins the LRU refresh on a
// same-version republish: re-publishing resident data marks it used even
// though the version does not supersede.
func TestStoreRejectedPublishStillTouches(t *testing.T) {
	s := NewStore(100, 0)
	a := Ref{Name: "a", Bytes: 40}
	b := Ref{Name: "b", Bytes: 40}
	s.Publish(Version{Ref: a, ID: id(a), Time: 1})
	s.Publish(Version{Ref: b, ID: id(b), Time: 2})
	// Republish a with an older version: rejected, but it refreshes a's
	// recency, so the next eviction takes b.
	s.Publish(Version{Ref: a, ID: id(a), Time: 0.5})
	c := Ref{Name: "c", Bytes: 40}
	ev := s.Publish(Version{Ref: c, ID: id(c), Time: 3})
	if len(ev) != 1 || ev[0].Ref.Name != "b" {
		t.Errorf("evicted %v, want b (a was refreshed)", ev)
	}
}

func TestHoldsDoesNotPerturbLRU(t *testing.T) {
	s := NewStore(100, 0)
	a := Ref{Name: "a", Bytes: 40}
	b := Ref{Name: "b", Bytes: 40}
	s.Publish(Version{Ref: a, ID: id(a), Time: 1})
	s.Publish(Version{Ref: b, ID: id(b), Time: 2})
	// Pure reads must not count as use: a stays oldest.
	for i := 0; i < 4; i++ {
		if !s.Holds(id(a)) {
			t.Fatal("a not held")
		}
	}
	c := Ref{Name: "c", Bytes: 40}
	ev := s.Publish(Version{Ref: c, ID: id(c), Time: 3})
	if len(ev) != 1 || ev[0].Ref.Name != "a" {
		t.Errorf("evicted %v, want a (Holds must not refresh)", ev)
	}
	// And Holds must not touch the hit/miss counters either.
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Holds moved counters: %+v", st)
	}
}

// TestHoldsByKey pins the identity model: partitions are identified by
// (name, partition) alone; Bytes is the declared size, not part of the
// key, so a reader quoting a different size still hits the resident copy.
func TestHoldsByKey(t *testing.T) {
	s := NewStore(0, 0)
	a := Ref{Name: "a", Bytes: 40}
	s.Publish(Version{Ref: a, ID: id(a), Time: 1})
	if !s.Holds(id(Ref{Name: "a", Bytes: 39})) {
		t.Error("Holds keyed on bytes; identity is (name, partition)")
	}
	if s.Holds(id(Ref{Name: "a", Partition: 1, Bytes: 40})) {
		t.Error("Holds ignored the partition index")
	}
}

func ExampleStore() {
	s := NewStore(128, 0)
	for p, r := range Partitioned("points", 96, 3) {
		part := Intern(r) // once, where the partition enters the system
		s.Publish(Version{Ref: part.Ref, ID: part.ID, Time: float64(p), Workflow: "ingest"})
	}
	probe := Intern(Ref{Name: "points", Partition: 1, Bytes: 32})
	wan := func(p Part, _ float64) (float64, bool) { return float64(p.Ref.Bytes) / 1e9, true }
	fmt.Println(s.Len(), s.Resident(), s.Estimate([]Part{probe}, 0, wan))
	// Output: 3 96 0
}
