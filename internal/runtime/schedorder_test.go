package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestInsertAssignmentOutOfOrder is the regression test for replacing the
// finish-time sort.SliceStable over Schedule.Assignments with ordered
// insertion as completions arrive: for any arrival order — including the
// out-of-order completions a multi-node run produces when a slow node
// reports after a fast one — the final schedule must be exactly what the
// old full-slice stable sort by Start produced, ties preserving arrival
// order.
func TestInsertAssignmentOutOfOrder(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		arrivals := []Assignment{
			{Task: "d", Start: 3.0},
			{Task: "a", Start: 1.0}, // arrives after a later start: must insert before d
			{Task: "c", Start: 3.0}, // ties with d: arrival order d,c must survive
			{Task: "b", Start: 1.0}, // ties with a: arrival order a,b must survive
			{Task: "e", Start: 0.5}, // earliest last: must land first
		}
		st := &wfState{sched: &Schedule{}}
		for _, a := range arrivals {
			st.insertAssignment(a)
		}
		want := []string{"e", "a", "b", "d", "c"}
		for i, a := range st.sched.Assignments {
			if a.Task != want[i] {
				t.Fatalf("position %d = %q, want %q (full order %v)",
					i, a.Task, want[i], assignedTasks(st.sched.Assignments))
			}
		}
	})

	t.Run("randomized against stable sort", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		for round := 0; round < 50; round++ {
			n := 1 + rng.Intn(40)
			st := &wfState{sched: &Schedule{}}
			var ref []Assignment
			for i := 0; i < n; i++ {
				a := Assignment{
					Task:  fmt.Sprintf("t%02d", i),
					Node:  fmt.Sprintf("n%d", rng.Intn(3)),
					Start: float64(rng.Intn(5)), // few buckets => many Start ties
					End:   float64(rng.Intn(5)) + 1,
				}
				st.insertAssignment(a)
				ref = append(ref, a)
			}
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].Start < ref[j].Start })
			if len(st.sched.Assignments) != len(ref) {
				t.Fatalf("round %d: %d assignments, want %d", round, len(st.sched.Assignments), len(ref))
			}
			for i := range ref {
				if st.sched.Assignments[i] != ref[i] {
					t.Fatalf("round %d diverges from stable sort at %d:\n got %v\nwant %v",
						round, i, assignedTasks(st.sched.Assignments), assignedTasks(ref))
				}
			}
		}
	})
}

func assignedTasks(as []Assignment) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = fmt.Sprintf("%s@%g", a.Task, a.Start)
	}
	return out
}
