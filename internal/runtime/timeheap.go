package runtime

// TimeHeap is a 4-ary indexed min-heap over modelled-time events with a
// total, deterministic order: modelled time first, then workflow id, then
// task name, then sequence number. Every consumer that replaced a linear
// ready-scan with this heap (the engine's inline execution order, the SDK's
// closed-loop client picker) inherits the same tie-break, which is what
// keeps trace streams byte-identical across GOMAXPROCS settings: no pop
// ever depends on insertion racing or map iteration.
//
// A 4-ary layout halves the tree depth of a binary heap, trading slightly
// wider sift-down comparisons for fewer cache lines touched per operation —
// the usual win for small records popped in tight loops.
type TimeHeap struct {
	items []TimeItem
}

// TimeItem is one heap entry. Seq is the final tie-break and should be
// unique per logical entry (a node index, a client index); WF and Task may
// be empty when the caller orders by time and sequence alone.
type TimeItem struct {
	Time float64
	WF   string
	Task string
	Seq  int
}

// timeLess is the deterministic total order: (Time, WF, Task, Seq).
func timeLess(a, b TimeItem) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.WF != b.WF {
		return a.WF < b.WF
	}
	if a.Task != b.Task {
		return a.Task < b.Task
	}
	return a.Seq < b.Seq
}

// NewTimeHeap returns a heap with room for n entries before growing.
func NewTimeHeap(n int) *TimeHeap {
	return &TimeHeap{items: make([]TimeItem, 0, n)}
}

// Len returns the number of queued entries.
func (h *TimeHeap) Len() int { return len(h.items) }

// Push inserts an entry.
func (h *TimeHeap) Push(it TimeItem) {
	h.items = append(h.items, it)
	h.siftUp(len(h.items) - 1)
}

// PopMin removes and returns the minimum entry.
func (h *TimeHeap) PopMin() TimeItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *TimeHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !timeLess(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *TimeHeap) siftDown(i int) {
	n := len(h.items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := i
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if timeLess(h.items[c], h.items[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}
