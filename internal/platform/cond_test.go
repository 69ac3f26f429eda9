package platform

import (
	"math"
	"testing"
)

// condAtScan is the reverse linear scan condAt replaced, kept as its
// reference: the newest change with at <= t, or def.
func condAtScan(hist []condChange, t, def float64) float64 {
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].at <= t {
			return hist[i].value
		}
	}
	return def
}

func TestCondAtMatchesReverseScan(t *testing.T) {
	ties := []condChange{{1, 2}, {2, 3}, {2, 4}, {2, 5}, {4, 0}, {4, 1}, {7, 6}}
	for _, tc := range []struct {
		name string
		hist []condChange
		ts   []float64
	}{
		{"empty history", nil, []float64{-1, 0, 5}},
		{"single change", []condChange{{3, 0}}, []float64{2.999, 3, 3.001}},
		{"before the first change", ties, []float64{math.Inf(-1), -5, 0, 0.999}},
		{"ties at equal at", ties, []float64{1, 1.5, 2, 3.99, 4, 4.5}},
		{"at and after the last change", ties, []float64{7, 7.5, 1e9, math.Inf(1)}},
		{"NaN time", ties, []float64{math.NaN()}},
	} {
		for _, at := range tc.ts {
			want := condAtScan(tc.hist, at, -1)
			if got := condAt(tc.hist, at, -1); got != want {
				t.Errorf("%s: condAt(t=%g) = %g, reverse scan %g", tc.name, at, got, want)
			}
		}
	}
	// Every query point of a longer sorted script with runs of ties.
	var script []condChange
	for i := 0; i < 40; i++ {
		script = append(script, condChange{at: float64(i / 3), value: float64(i)})
	}
	for q := -1.0; q <= 15; q += 0.25 {
		if got, want := condAt(script, q, -1), condAtScan(script, q, -1); got != want {
			t.Errorf("script: condAt(t=%g) = %g, reverse scan %g", q, got, want)
		}
	}
}
