package runtime

import (
	"fmt"
	"slices"
	"testing"

	"everest/internal/dataset"
)

// TestSubmitCopiesSpecSlices: Submit keeps its own copies of Deps, Reads
// and Writes, so a caller reusing its slices after Submit changes neither
// the stored spec, nor the bytes the engine prices, nor the partitions the
// data plane resolved. Before the copy, Get returned the caller's new ref
// while InputBytes still priced the old one.
func TestSubmitCopiesSpecSlices(t *testing.T) {
	a := dataset.Ref{Name: "a", Partition: 0, Bytes: 100}
	out := dataset.Ref{Name: "out", Bytes: 8}
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{Name: "src"}); err != nil {
		t.Fatal(err)
	}
	deps, reads, writes := []string{"src"}, []dataset.Ref{a}, []dataset.Ref{out}
	if err := w.Submit(TaskSpec{Name: "t", Deps: deps, Reads: reads, Writes: writes}); err != nil {
		t.Fatal(err)
	}
	deps[0] = "elsewhere"
	reads[0] = dataset.Ref{Name: "b", Partition: 3, Bytes: 5000}
	writes[0] = dataset.Ref{Name: "other", Bytes: 9}

	got, _ := w.Get("t")
	if !slices.Equal(got.Deps, []string{"src"}) || !slices.Equal(got.Reads, []dataset.Ref{a}) ||
		!slices.Equal(got.Writes, []dataset.Ref{out}) {
		t.Fatalf("stored spec follows the caller's slices: deps=%v reads=%v writes=%v", got.Deps, got.Reads, got.Writes)
	}
	if got.InputBytes != 100 || got.TotalBytes() != 108 {
		t.Fatalf("InputBytes=%d TotalBytes=%d, want 100/108", got.InputBytes, got.TotalBytes())
	}
	if r := w.Reads(); len(r) != 1 || r[0] != dataset.Intern(a) {
		t.Fatalf("resolved reads = %v, want [a#0]", r)
	}
	if o := w.Outputs(); len(o) != 1 || o[0].Part != dataset.Intern(out) {
		t.Fatalf("resolved outputs = %v, want [out#0]", o)
	}

	// Get hands out copies too: editing them reaches nothing stored.
	got.Deps[0], got.Reads[0], got.Writes[0] = "x", reads[0], writes[0]
	if again, _ := w.Get("t"); again.Deps[0] != "src" || again.Reads[0] != a || again.Writes[0] != out {
		t.Fatalf("editing Get's slices changed the stored spec: %+v", again)
	}
}

// TestWorkflowNeeds: the distinct bitstreams of the FPGA tasks, in
// first-use order; a software task or an empty ID adds none.
func TestWorkflowNeeds(t *testing.T) {
	w := NewWorkflow()
	for _, spec := range []TaskSpec{
		{Name: "cpu", Flops: 1e9},
		{Name: "x1", Flops: 1e9, NeedsFPGA: true, BitstreamID: "bs-x"},
		{Name: "noid", Flops: 1e9, NeedsFPGA: true},
		{Name: "offid", Flops: 1e9, BitstreamID: "bs-off"},
		{Name: "y", Flops: 1e9, NeedsFPGA: true, BitstreamID: "bs-y"},
		{Name: "x2", Flops: 1e9, NeedsFPGA: true, BitstreamID: "bs-x"},
	} {
		if err := w.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Needs(); !slices.Equal(got, needParts("bs-x", "bs-y")) {
		t.Fatalf("Needs = %v, want [bs-x bs-y]", got)
	}
}

// TestWorkflowReadsIncremental: a partition written by a later task
// leaves the external reads, on a copy, so the slice an earlier
// submission was served with keeps its partitions.
func TestWorkflowReadsIncremental(t *testing.T) {
	a, b := dataset.Ref{Name: "a", Bytes: 1}, dataset.Ref{Name: "b", Bytes: 2}
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{Name: "r", Reads: []dataset.Ref{a, b, a}}); err != nil {
		t.Fatal(err)
	}
	served := w.Reads()
	if len(served) != 2 || served[0].Ref != a || served[1].Ref != b {
		t.Fatalf("Reads = %v, want [a b]", served)
	}
	if err := w.Submit(TaskSpec{Name: "w", Writes: []dataset.Ref{a}, Reads: []dataset.Ref{a}}); err != nil {
		t.Fatal(err)
	}
	if got := w.Reads(); len(got) != 1 || got[0].Ref != b {
		t.Fatalf("Reads after a's write = %v, want [b]", got)
	}
	if served[0].Ref != a || served[1].Ref != b {
		t.Fatalf("removing a rewrote the served slice: %v", served)
	}
}

// refReads is the per-submission scan the data plane replaced, kept as
// the reference: partitions read by some task and written by none,
// deduplicated by key in first-use order.
func refReads(w *Workflow) []dataset.Ref {
	var writes []dataset.Key
	for _, t := range w.specs {
		for _, r := range t.Writes {
			writes = append(writes, r.Key())
		}
	}
	var out []dataset.Ref
	for _, t := range w.specs {
		for _, r := range t.Reads {
			k := r.Key()
			if !slices.Contains(writes, k) && !slices.ContainsFunc(out, func(o dataset.Ref) bool { return o.Key() == k }) {
				out = append(out, r)
			}
		}
	}
	return out
}

// refNeeds is the reference bitstream-needs scan.
func refNeeds(w *Workflow) []dataset.Part {
	var ids []string
	for _, t := range w.specs {
		if t.NeedsFPGA && t.BitstreamID != "" && !slices.Contains(ids, t.BitstreamID) {
			ids = append(ids, t.BitstreamID)
		}
	}
	return needParts(ids...)
}

// needParts interns bitstream IDs the way Submit resolves needs.
func needParts(ids ...string) []dataset.Part {
	var out []dataset.Part
	for _, id := range ids {
		out = append(out, dataset.Intern(dataset.Ref{Name: id}))
	}
	return out
}

// checkData compares the workflow's resolved data plane against the
// reference scans: reads (refs and interned IDs), every task's write IDs
// in submission order, and the needs.
func checkData(t *testing.T, w *Workflow, when string) {
	t.Helper()
	want := refReads(w)
	got := w.Reads()
	if len(got) != len(want) {
		t.Fatalf("%s: Reads = %v, want %v", when, got, want)
	}
	for i, p := range got {
		if p.Ref != want[i] || p.ID != dataset.Intern(want[i]).ID || p.ID.Value() != want[i].Key() {
			t.Fatalf("%s: read %d = %v, want %v", when, i, p, want[i])
		}
	}
	var outs []Output
	for _, ts := range w.specs {
		for _, r := range ts.Writes {
			outs = append(outs, Output{Task: ts.Name, Part: dataset.Intern(r)})
		}
	}
	if got := w.Outputs(); !slices.Equal(got, outs) {
		t.Fatalf("%s: Outputs = %v, want %v", when, got, outs)
	}
	if got, want := w.Needs(), refNeeds(w); !slices.Equal(got, want) {
		t.Fatalf("%s: Needs = %v, want %v", when, got, want)
	}
}

// FuzzWorkflowData builds random workflows over a 3-name x 3-partition
// space — reads and writes with varying declared sizes, FPGA flags and
// bitstream IDs, optional dependencies — and checks the data plane Submit
// resolves against the reference scans after every task, and that a
// slice handed out earlier never changes.
//
// Encoding: per task one header byte
// [reads:2 | writes:2 | fpga:1 | bitstream:2 | dep:1] followed by one
// byte per read and write: key = b%9, size = b/9.
func FuzzWorkflowData(f *testing.F) {
	// The k-means map shape: assign reads points#p and centroids and
	// writes weights#p; fold reads weights#p and points#p, writes
	// partial#p.
	f.Add([]byte{2 | 1<<2 | 1<<4 | 1<<5, 0, 6, 1, 2 | 1<<2 | 1<<4 | 2<<5 | 1<<7, 1, 0, 2})
	f.Add([]byte{3 | 2<<2, 0, 1, 2, 3, 4, 1 | 1<<2 | 1<<7, 5, 0, 1 | 1<<4 | 3<<5, 10}) // later write
	f.Add([]byte{1 | 1<<2, 4, 4, 2, 13, 22})                                           // same key, new sizes
	f.Add([]byte{})                                                                    // no tasks
	bitstreams := []string{"", "bs-a", "bs-b", "bs-ptdr"}
	names := []string{"pts", "wts", "part"}

	f.Fuzz(func(t *testing.T, data []byte) {
		ref := func(b byte) dataset.Ref {
			return dataset.Ref{Name: names[b%9/3], Partition: int(b % 3), Bytes: int64(b/9) * 10}
		}
		w := NewWorkflow()
		checkData(t, w, "before any task")
		type snapshot struct{ got, want []dataset.Part }
		var snaps []snapshot
		for i := 0; len(data) > 0 && i < 32; i++ {
			h := data[0]
			data = data[1:]
			spec := TaskSpec{Name: fmt.Sprintf("t%d", i), Flops: 1e9,
				NeedsFPGA: h&(1<<4) != 0, BitstreamID: bitstreams[(h>>5)&3]}
			if h&(1<<7) != 0 && i > 0 {
				spec.Deps = []string{fmt.Sprintf("t%d", i-1)}
			}
			for n := int(h & 3); n > 0 && len(data) > 0; n-- {
				spec.Reads, data = append(spec.Reads, ref(data[0])), data[1:]
			}
			for n := int(h>>2) & 3; n > 0 && len(data) > 0; n-- {
				spec.Writes, data = append(spec.Writes, ref(data[0])), data[1:]
			}
			snaps = append(snaps, snapshot{w.Reads(), slices.Clone(w.Reads())})
			if err := w.Submit(spec); err != nil {
				t.Fatal(err)
			}
			checkData(t, w, fmt.Sprintf("after task %d", i))
		}
		for i, s := range snaps {
			if !slices.Equal(s.got, s.want) {
				t.Fatalf("the Reads slice handed out before task %d changed: %v, was %v", i, s.got, s.want)
			}
		}
	})
}
