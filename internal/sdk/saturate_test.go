package sdk

import (
	"strings"
	"testing"
)

// TestPercentileExactBoundaries pins the nearest-rank computation at the
// exact multiples q = i/n, where the pre-fix float fudge (+0.9999999
// instead of a true ceiling) could land one rank off. The nearest-rank
// quantile at q = i/n is by definition the i-th smallest element.
func TestPercentileExactBoundaries(t *testing.T) {
	for n := 1; n <= 5; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1) // sorted 1..n
		}
		for i := 1; i <= n; i++ {
			q := float64(i) / float64(n)
			if got := Percentile(xs, q); got != float64(i) {
				t.Errorf("Percentile(n=%d, q=%d/%d) = %g, want %g", n, i, n, got, float64(i))
			}
		}
	}
}

// TestPercentileNearIntegerRank covers the two sides of an integer q·n
// product. A genuine (if tiny) fraction above the boundary must move to
// the next rank — the pre-fix fudge factor silently swallowed fractions
// under 1e-7 and reported the lower rank — while pure floating error from
// representing q (0.95·20 evaluates to 19.000000000000004) must not.
func TestPercentileNearIntegerRank(t *testing.T) {
	xs4 := []float64{1, 2, 3, 4}
	// q strictly above 1/4: nearest rank is the smallest k with k/4 >= q,
	// which is 2. The old rank computation returned element 1.
	if got := Percentile(xs4, 0.25+1e-8); got != 2 {
		t.Errorf("Percentile(q=0.25+1e-8) = %g, want 2", got)
	}
	xs20 := make([]float64, 20)
	for i := range xs20 {
		xs20[i] = float64(i + 1)
	}
	// 0.95*20 lands 2 ulps above 19; the intended rank is exactly 19.
	if got := Percentile(xs20, 0.95); got != 19 {
		t.Errorf("Percentile(n=20, q=0.95) = %g, want 19", got)
	}
	// Single- and two-element boundary behavior.
	if got := Percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("Percentile(n=1) = %g, want 7", got)
	}
	if got := Percentile([]float64{1, 2}, 0.5); got != 1 {
		t.Errorf("Percentile(n=2, q=0.5) = %g, want 1", got)
	}
	if got := Percentile([]float64{1, 2}, 0.51); got != 2 {
		t.Errorf("Percentile(n=2, q=0.51) = %g, want 2", got)
	}
}

// TestSaturateTieBreaksOnLowerOfferedRate drives the ladder loop with a
// synthetic serving function: two rungs achieve identical SLO-meeting
// throughput, and the reported best must be the lower offered rate
// (larger gap) regardless of ladder order — pre-fix, input order decided.
func TestSaturateTieBreaksOnLowerOfferedRate(t *testing.T) {
	run := func(FleetScenario) (FleetResult, error) {
		return FleetResult{Throughput: 10, P95: 1, SLOMet: true}, nil
	}
	for _, ladder := range [][]float64{{0.2, 0.1}, {0.1, 0.2}} {
		points, best, err := DefaultFleetScenario().saturate(ladder, run)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 2 {
			t.Fatalf("got %d points, want 2", len(points))
		}
		if best.Gap != 0.2 {
			t.Errorf("ladder %v: best gap = %g, want 0.2 (lower offered rate wins ties)", ladder, best.Gap)
		}
	}
}

// TestSaturateRejectsDuplicateGaps: serving the same rung twice could only
// re-measure it, and which copy won a tie would be an accident of
// position, so duplicate gaps are an input error.
func TestSaturateRejectsDuplicateGaps(t *testing.T) {
	run := func(sc FleetScenario) (FleetResult, error) {
		return FleetResult{Throughput: 1 / sc.ArrivalGap, SLOMet: true}, nil
	}
	sc := DefaultFleetScenario()
	if _, _, err := sc.saturate([]float64{0.2, 0.1, 0.2}, run); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate gap accepted (err=%v)", err)
	}
	if _, _, err := sc.saturate([]float64{0.2, 0}, run); err == nil {
		t.Fatal("zero gap accepted")
	}
}
