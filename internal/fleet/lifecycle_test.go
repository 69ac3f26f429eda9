package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"everest/internal/dataset"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// TestStartAfterShutdownRefuses: a fleet shut down before it ever started
// stays shut. Start refuses with ErrShutDown and starts no site engine:
// Shutdown already shut them, started or not.
func TestStartAfterShutdownRefuses(t *testing.T) {
	f, err := New(platform.NewRegistry(), Config{Sites: 2, NewCluster: testCluster(1)})
	if err != nil {
		t.Fatal(err)
	}
	f.Shutdown()
	if err := f.Start(); !errors.Is(err, runtime.ErrShutDown) {
		t.Fatalf("Start after Shutdown = %v, want %v", err, runtime.ErrShutDown)
	}
	for _, s := range f.sites {
		if err := s.engine.Start(); !errors.Is(err, runtime.ErrShutDown) {
			t.Errorf("%s engine Start = %v: Shutdown left the engine open", s.name, err)
		}
	}
	if _, err := f.Submit(Request{Workflow: cpuWorkflow()}); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("Submit = %v, want %v", err, runtime.ErrShutDown)
	}
}

// TestFailedStartShutsFleet: site01's script unplugs a device its node
// does not have, so its engine refuses to start after site00's engine has
// started. The failed Start is final: it shuts site00's engine, and every
// later call gets ErrShutDown.
func TestFailedStartShutsFleet(t *testing.T) {
	f, err := New(platform.NewRegistry(), Config{Sites: 2, NewCluster: testCluster(1),
		SiteEvents: [][]runtime.EnvEvent{nil, {{Kind: runtime.EnvUnplug, Node: "node00", Device: 7, At: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil || !strings.Contains(err.Error(), "site01") {
		t.Fatalf("Start = %v, want site01's refusal", err)
	}
	if err := f.sites[0].engine.Apply(runtime.EnvEvent{Kind: runtime.EnvUnplug, Node: "node00", At: 1}); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("site00 engine Apply = %v: the failed Start left it serving", err)
	}
	if err := f.Start(); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("second Start = %v, want %v", err, runtime.ErrShutDown)
	}
	if _, err := f.Submit(Request{Workflow: cpuWorkflow()}); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("Submit = %v, want %v", err, runtime.ErrShutDown)
	}
	if err := f.Publish(testBitstream("bs-late")); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("Publish = %v, want %v", err, runtime.ErrShutDown)
	}
}

// TestShutdownRacesMutators: Publish, PlaceDataset, Warm and Submit on
// the fleet race Shutdown. Each call either happened, and is visible
// afterwards, or returned ErrShutDown and left no trace: the lifecycle is
// checked under the fleet lock, which guards what the call writes. (A site
// engine's Apply writes its nodes, which the router reads under the fleet
// lock, so no caller outside the fleet reaches a site engine.)
func TestShutdownRacesMutators(t *testing.T) {
	const warmIDs = 64
	reg := platform.NewRegistry()
	for i := 0; i < warmIDs; i++ {
		if err := reg.Put(testBitstream(fmt.Sprintf("warm-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	traced := map[EventKind]int{} // written under the fleet lock
	f := newTestFleet(t, reg, Config{Sites: 3, CacheSlots: 4, NewCluster: testCluster(2),
		Trace: func(ev Event) { traced[ev.Kind]++ }})
	base := f.Stats()

	type outcome struct{ accepted []int }
	var (
		started sync.WaitGroup // every mutator has had one call accepted
		done    sync.WaitGroup
		mu      sync.Mutex
		refusal []error
	)
	// race runs call(i) for i = 0, 1, ... until it is refused.
	race := func(out *outcome, call func(i int) error) {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			first := true
			for i := 0; ; i++ {
				if err := call(i); err != nil {
					mu.Lock()
					refusal = append(refusal, err)
					mu.Unlock()
					if first {
						started.Done()
					}
					return
				}
				out.accepted = append(out.accepted, i)
				if first {
					first = false
					started.Done()
				}
			}
		}()
	}
	var pub, place, warm, submit outcome
	race(&pub, func(i int) error { return f.Publish(testBitstream(fmt.Sprintf("pub-%d", i))) })
	race(&place, func(i int) error {
		return f.PlaceDataset(i%2, 0, dataset.Ref{Name: fmt.Sprintf("place-%d", i), Bytes: 1 << 10})
	})
	warmDeploys := 0 // accepted Warms that staged a bitstream
	race(&warm, func(i int) error {
		_, dt, err := f.Warm(fmt.Sprintf("warm-%d", i%warmIDs), float64(i))
		if err == nil && dt > 0 {
			warmDeploys++
		}
		return err
	})
	race(&submit, func(i int) error {
		_, err := f.Submit(Request{Workflow: cpuWorkflow(), Arrival: float64(i)})
		return err
	})
	started.Wait()
	final := f.Shutdown()
	done.Wait()

	for _, err := range refusal {
		if !errors.Is(err, runtime.ErrShutDown) {
			t.Errorf("a call racing Shutdown failed with %v, want %v", err, runtime.ErrShutDown)
		}
	}
	if len(refusal) != 4 {
		t.Fatalf("%d calls refused, want one per mutator (4)", len(refusal))
	}
	if after := f.Stats(); !reflect.DeepEqual(after, final) {
		t.Errorf("stats moved after Shutdown returned:\n final %+v\n after %+v", final, after)
	}
	for _, i := range pub.accepted {
		if _, err := reg.Entry(fmt.Sprintf("pub-%d", i)); err != nil {
			t.Errorf("accepted Publish %d is not in the registry: %v", i, err)
		}
	}
	if _, err := reg.Entry(fmt.Sprintf("pub-%d", len(pub.accepted))); err == nil {
		t.Error("the refused Publish wrote the registry")
	}
	for _, i := range place.accepted {
		if !f.DatasetResident(i%2, dataset.Ref{Name: fmt.Sprintf("place-%d", i), Bytes: 1 << 10}) {
			t.Errorf("accepted PlaceDataset %d is not resident", i)
		}
	}
	if i := len(place.accepted); f.DatasetResident(i%2, dataset.Ref{Name: fmt.Sprintf("place-%d", i), Bytes: 1 << 10}) {
		t.Error("the refused PlaceDataset published its partition")
	}
	if got := final.WarmDeploys() - base.WarmDeploys(); got != warmDeploys || traced[EventWarm] != got {
		t.Errorf("%d warm deploys and %d warm events, want the %d accepted Warms that staged",
			got, traced[EventWarm], warmDeploys)
	}
	if got := final.Submitted - base.Submitted; got != len(submit.accepted) || traced[EventRoute] != got {
		t.Errorf("%d submitted and %d routed, want %d accepted Submits", got, traced[EventRoute], len(submit.accepted))
	}
	if final.Completed != final.Submitted {
		t.Errorf("%d of %d accepted submissions completed", final.Completed, final.Submitted)
	}
}
