package sdk

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"everest/internal/fleet"
)

// TestGuaranteedVerifierZeroViolations is the PR-8 soundness contract: at
// best-effort saturation, through an accelerator unplug AND a 3x CPU
// slowdown on site 0, not one admitted guaranteed workflow may finish past
// its proven bound. The admission math is either sound or it is not —
// the gate is exactly zero, not "few".
func TestGuaranteedVerifierZeroViolations(t *testing.T) {
	sc := DefaultGuaranteedScenario()
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundViolations != 0 {
		t.Fatalf("%d guaranteed completions missed their proven bound (admitted %d)",
			res.BoundViolations, res.GuaranteedAdmitted)
	}
	if res.GuaranteedAdmitted == 0 {
		t.Fatal("scenario admitted no guaranteed work; the verifier proves nothing")
	}
	if res.GuaranteedRefused == 0 {
		t.Fatal("scenario refused no guaranteed work; admission control was never exercised")
	}
	if res.BoundTightness <= 0 || res.BoundTightness > 1 {
		t.Fatalf("bound tightness %.3f out of (0, 1]: a ratio > 1 is a violation, <= 0 means no bound was recorded", res.BoundTightness)
	}
	if res.Completed != sc.Workflows {
		t.Fatalf("completed %d/%d: refusals must degrade to best-effort, not drop work",
			res.Completed, sc.Workflows)
	}
}

// TestGuaranteedAdmitRateMonotone: loosening the deadline can only admit
// more — the admission bound is deadline-independent, so the candidate set
// grows monotonically.
func TestGuaranteedAdmitRateMonotone(t *testing.T) {
	prev := -1.0
	for _, dl := range []float64{1, 4, 16} {
		sc := DefaultGuaranteedScenario()
		sc.GuaranteedDeadline = dl
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.BoundViolations != 0 {
			t.Fatalf("deadline %g: %d bound violations", dl, res.BoundViolations)
		}
		if res.GuaranteedAdmitRate < prev {
			t.Fatalf("admit rate fell from %.2f to %.2f as the deadline loosened to %g",
				prev, res.GuaranteedAdmitRate, dl)
		}
		prev = res.GuaranteedAdmitRate
	}
	if prev < 1 {
		t.Fatalf("a 16s deadline should admit everything on this scenario, got rate %.2f", prev)
	}
}

// TestGuaranteedScenarioDeterministicTrace extends the PR-6 determinism
// contract to the guaranteed-class path: the merged fleet+engine trace —
// which now includes the admission bounds in the route events — must be
// byte-identical across scheduler widths.
func TestGuaranteedScenarioDeterministicTrace(t *testing.T) {
	sc := DefaultGuaranteedScenario()
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc FleetScenario) (FleetResult, error) { return sc.RunWith(c) }
	ref := atGOMAXPROCS(1, func() []byte { return renderTraces(t, sc, run) })
	got := atGOMAXPROCS(8, func() []byte { return renderTraces(t, sc, run) })
	if !bytes.Equal(ref, got) {
		t.Fatalf("guaranteed trace diverged across GOMAXPROCS (%d vs %d bytes):\n%s",
			len(ref), len(got), firstDiff(ref, got))
	}
}

// TestGuaranteedDeadlineMustBePositive: a guaranteed class without a
// positive deadline is a configuration error, not saturation. Both
// arrival modes must say so, instead of counting every guaranteed
// submission as rejected (open loop) or retrying it forever (closed
// loop).
func TestGuaranteedDeadlineMustBePositive(t *testing.T) {
	c, err := DefaultGuaranteedScenario().Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, closed := range []bool{false, true} {
		sc := DefaultGuaranteedScenario()
		sc.Closed = closed
		sc.GuaranteedDeadline = 0
		done := make(chan error, 1)
		go func() { _, err := sc.RunWith(c); done <- err }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "deadline") {
				t.Errorf("closed=%v: got %v, want an error naming the deadline", closed, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("closed=%v: a zero-deadline run is still going after 30s", closed)
		}
	}
}

// TestSubmitGuaranteedDegradesOnlyOnSaturation pins the shared tally:
// only fleet.ErrSaturated counts as a refusal and degrades; any other
// error is returned untouched and counted as neither.
func TestSubmitGuaranteedDegradesOnlyOnSaturation(t *testing.T) {
	var g guarantees
	degraded := 0
	degrade := func() (int, error) { degraded++; return 2, nil }
	if v, err := submitGuaranteed(&g, func() (int, error) { return 1, nil }, degrade); v != 1 || err != nil {
		t.Fatalf("admitted: got %d, %v", v, err)
	}
	saturated := func() (int, error) { return 0, fmt.Errorf("site busy: %w", fleet.ErrSaturated) }
	if v, err := submitGuaranteed(&g, saturated, degrade); v != 2 || err != nil {
		t.Fatalf("refused: got %d, %v, want the degraded submission", v, err)
	}
	boom := errors.New("boom")
	if _, err := submitGuaranteed(&g, func() (int, error) { return 0, boom }, degrade); !errors.Is(err, boom) {
		t.Fatalf("other error: got %v, want boom", err)
	}
	if g.admitted != 1 || g.refused != 1 || degraded != 1 || g.rate() != 0.5 {
		t.Fatalf("tally %+v, %d degraded; want 1 admitted, 1 refused, 1 degraded, rate 0.5", g, degraded)
	}
}
