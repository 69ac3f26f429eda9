package runtime

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTimeHeapTieBreak table-tests the deterministic total order the event
// core depends on: modelled time first, then workflow id, then task name,
// then sequence number. Each case pushes its items in every rotation of
// the given order and asserts the pop sequence never changes — insertion
// order must be invisible, or trace byte-identity across GOMAXPROCS breaks.
func TestTimeHeapTieBreak(t *testing.T) {
	cases := []struct {
		name  string
		items []TimeItem
		want  []int // indices into items, expected pop order
	}{
		{
			name: "time dominates",
			items: []TimeItem{
				{Time: 3, WF: "a", Seq: 0},
				{Time: 1, WF: "z", Seq: 9},
				{Time: 2, WF: "m", Seq: 5},
			},
			want: []int{1, 2, 0},
		},
		{
			name: "equal time falls to workflow id",
			items: []TimeItem{
				{Time: 1, WF: "wf02", Task: "a", Seq: 0},
				{Time: 1, WF: "wf00", Task: "z", Seq: 2},
				{Time: 1, WF: "wf01", Task: "m", Seq: 1},
			},
			want: []int{1, 2, 0},
		},
		{
			name: "equal time+wf falls to task name",
			items: []TimeItem{
				{Time: 2, WF: "wf00", Task: "reduce", Seq: 0},
				{Time: 2, WF: "wf00", Task: "load", Seq: 1},
				{Time: 2, WF: "wf00", Task: "map", Seq: 2},
			},
			want: []int{1, 2, 0},
		},
		{
			name: "full tie falls to sequence",
			items: []TimeItem{
				{Time: 0.5, WF: "wf00", Task: "t", Seq: 3},
				{Time: 0.5, WF: "wf00", Task: "t", Seq: 1},
				{Time: 0.5, WF: "wf00", Task: "t", Seq: 2},
			},
			want: []int{1, 2, 0},
		},
		{
			name: "empty wf/task sort before named (closed-loop picker shape)",
			items: []TimeItem{
				{Time: 1, WF: "wf00", Seq: 0},
				{Time: 1, Seq: 7},
				{Time: 1, Seq: 4},
			},
			want: []int{2, 1, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for rot := 0; rot < len(tc.items); rot++ {
				h := NewTimeHeap(len(tc.items))
				for i := 0; i < len(tc.items); i++ {
					h.Push(tc.items[(i+rot)%len(tc.items)])
				}
				for k, wi := range tc.want {
					got := h.PopMin()
					if got != tc.items[wi] {
						t.Fatalf("rotation %d pop %d = %+v, want items[%d] %+v",
							rot, k, got, wi, tc.items[wi])
					}
				}
				if h.Len() != 0 {
					t.Fatalf("rotation %d: %d items left after draining", rot, h.Len())
				}
			}
		})
	}
}

// TestTimeHeapMatchesSort cross-checks the 4-ary sift logic against
// sort.Slice over the same total order on randomized interleaved
// push/pop traffic, each round reusing the drained heap's backing storage.
func TestTimeHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := NewTimeHeap(8)
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(64)
		items := make([]TimeItem, n)
		for i := range items {
			items[i] = TimeItem{
				Time: float64(rng.Intn(4)), // few buckets => many ties
				WF:   string(rune('a' + rng.Intn(3))),
				Task: string(rune('p' + rng.Intn(3))),
				Seq:  i,
			}
			h.Push(items[i])
		}
		sort.Slice(items, func(i, j int) bool { return timeLess(items[i], items[j]) })
		if h.Peek() != items[0] {
			t.Fatalf("round %d: Peek = %+v, want %+v", round, h.Peek(), items[0])
		}
		for i, want := range items {
			if got := h.PopMin(); got != want {
				t.Fatalf("round %d pop %d = %+v, want %+v", round, i, got, want)
			}
		}
	}
}
