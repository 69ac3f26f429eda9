package fleet

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"everest/internal/platform"
	"everest/internal/runtime"
)

func TestGuaranteedNeedsDeadline(t *testing.T) {
	reg := platform.NewRegistry()
	f := newTestFleet(t, reg, Config{Sites: 1})
	defer f.Shutdown()
	if _, err := f.Submit(Request{Workflow: cpuWorkflow(), Guaranteed: true}); err == nil {
		t.Fatal("guaranteed request without a deadline must be refused")
	}
}

func TestNewRejectsSlowdownBeyondCap(t *testing.T) {
	for _, factor := range []float64{slowdownCap + 1, math.NaN()} {
		_, err := New(platform.NewRegistry(), Config{
			Sites: 1, NewCluster: testCluster(1),
			SiteEvents: [][]runtime.EnvEvent{{
				{Kind: runtime.EnvSlowdown, Node: "node00", Factor: factor, At: 0},
			}},
		})
		if err == nil {
			t.Fatalf("scripted slowdown factor %g beyond the slowdown cap must fail New", factor)
		}
	}
}

// TestGuaranteedAdmitAndSettle admits one guaranteed FPGA workflow on an
// idle fleet: the result must carry the proven bound, the modelled latency
// must respect it, and the settled stats must count it with no violation.
func TestGuaranteedAdmitAndSettle(t *testing.T) {
	reg := platform.NewRegistry()
	if err := reg.Put(testBitstream("bs-g")); err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, reg, Config{Sites: 2})
	defer f.Shutdown()

	tk, err := f.Submit(Request{Tenant: "g", Workflow: fpgaWorkflow("bs-g"),
		Arrival: 0, Guaranteed: true, Deadline: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Guaranteed {
		t.Fatal("result must be flagged guaranteed")
	}
	if res.Bound <= 0 || res.Bound > 60 {
		t.Fatalf("proven bound %g must be in (0, deadline]", res.Bound)
	}
	if res.Latency > res.Bound {
		t.Fatalf("latency %g exceeds proven bound %g", res.Latency, res.Bound)
	}
	st := f.Stats()
	if st.Completed != 1 || st.BoundViolations() != 0 {
		t.Fatalf("completed/violations = %d/%d, want 1/0", st.Completed, st.BoundViolations())
	}
}

// TestGuaranteedRefusesImpossibleDeadline asks for a bound no site can
// prove: Submit must refuse with ErrSaturated, in the text it always had,
// and serve nothing.
func TestGuaranteedRefusesImpossibleDeadline(t *testing.T) {
	reg := platform.NewRegistry()
	f := newTestFleet(t, reg, Config{Sites: 2})
	defer f.Shutdown()

	_, err := f.Submit(Request{Workflow: cpuWorkflow(), Guaranteed: true, Deadline: 1e-12})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("expected ErrSaturated, got %v", err)
	}
	if want := fmt.Errorf("%w: no site can prove a %.4gs deadline (%d sites)", ErrSaturated, 1e-12, 2).Error(); err.Error() != want {
		t.Errorf("refusal reads %q, want %q", err, want)
	}
	st := f.Stats()
	if st.Rejected != 1 || st.Submitted != 0 {
		t.Fatalf("rejected/submitted = %d/%d, want 1/0", st.Rejected, st.Submitted)
	}
}

// TestGuaranteedRoutesCheapestBound: with one site held busy, the
// guaranteed router must pick the idle site even when best-effort
// affinity would have preferred the busy one.
func TestGuaranteedRoutesCheapestBound(t *testing.T) {
	reg := platform.NewRegistry()
	f := newTestFleet(t, reg, Config{Sites: 2})
	defer f.Shutdown()

	// Load site00 via a best-effort tenant, waited to completion so its
	// busy frontier advances deterministically.
	tk, err := f.Submit(Request{Tenant: "t", Workflow: cpuWorkflow(), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Site != "site00" {
		t.Fatalf("warmup routed to %s, want site00", res.Site)
	}
	// A guaranteed arrival at time 0 pays the full wait on site00 but
	// nothing on site01: the proof-cheapest site must win.
	tk2, err := f.Submit(Request{Tenant: "t", Workflow: cpuWorkflow(),
		Arrival: 0, Guaranteed: true, Deadline: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := tk2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Site != "site01" {
		t.Fatalf("guaranteed routed to %s, want idle site01", res2.Site)
	}
}
