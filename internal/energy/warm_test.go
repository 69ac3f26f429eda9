package energy

import (
	"math"
	"testing"
)

// warmStats counts what a refit sequence exercised.
type warmStats struct {
	fits     int // successful fits
	warm     int // fits that reused a previous fit's rows
	kvReused int // fits that took the new row's kernel entries from Predict
	jittered int // fits that needed diagonal jitter
}

// replayWarmRefit drives one KRR the way the region forecaster does:
// window counts arrive one at a time, the history is capped at maxHist
// (the prefix shifts once it is full), and after every arrival the
// regressor is refitted in place on the history's lag windows (FitLagged)
// and asked for the next window. Every warm refit must equal a fresh cold
// FitRows on the materialized rows — row i is hist[i:i+lag], its target
// hist[i+lag] — bit for bit: the error outcome, the dual coefficients and
// the prediction. With foreign set, the regressor is also asked about
// features no later row holds after every fit, so the next fit must not
// reuse that Predict's kernel vector.
func replayWarmRefit(t testing.TB, counts []float64, lag, maxHist int, lambda, gamma float64, foreign bool) warmStats {
	t.Helper()
	var st warmStats
	warm := NewKRR(lambda, gamma)
	var hist, rows []float64
	for step, c := range counts {
		hist = append(hist, c)
		if len(hist) > maxHist {
			hist = hist[len(hist)-maxHist:]
		}
		n := len(hist) - lag
		if n < 2 {
			continue
		}
		rows = rows[:0]
		for i := 0; i < n; i++ {
			rows = append(rows, hist[i:i+lag]...)
		}
		reused, _ := warm.prefixRows(hist, n, lag, 1)
		warmErr := warm.FitLagged(hist, lag)
		cold := NewKRR(lambda, gamma)
		coldErr := cold.FitRows(rows, n, lag, hist[lag:])
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("step %d: warm error %v, cold error %v", step, warmErr, coldErr)
		}
		if coldErr != nil {
			continue
		}
		st.fits++
		if reused > 0 {
			st.warm++
		}
		if warm.kvUsed {
			st.kvReused++
			if foreign {
				t.Fatalf("step %d: the fit reused the kernel vector of a Predict on foreign features", step)
			}
		}
		if !cold.exact {
			st.jittered++
		}
		if warm.exact != cold.exact {
			t.Fatalf("step %d: warm fit exact=%v, cold exact=%v", step, warm.exact, cold.exact)
		}
		for i := range cold.alpha {
			if math.Float64bits(warm.alpha[i]) != math.Float64bits(cold.alpha[i]) {
				t.Fatalf("step %d (n=%d, reused=%d, kv=%v): alpha[%d] = %v warm, %v cold", step, n, reused, warm.kvUsed, i, warm.alpha[i], cold.alpha[i])
			}
		}
		feat := hist[len(hist)-lag:]
		wp, err := warm.Predict(feat)
		if err != nil {
			t.Fatal(err)
		}
		cp, _ := cold.Predict(feat)
		if math.Float64bits(wp) != math.Float64bits(cp) {
			t.Fatalf("step %d: warm predict %v, cold %v", step, wp, cp)
		}
		if foreign {
			// Window counts are integers, so no later row holds these.
			odd := make([]float64, lag)
			for j, v := range feat {
				odd[j] = v + 0.5
			}
			if _, err := warm.Predict(odd); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func TestKRRWarmRefitMatchesCold(t *testing.T) {
	// A period-4 wave of small-integer window counts, long
	// enough to cross several buffer-capacity boundaries and the cap.
	wave := make([]float64, 140)
	for i := range wave {
		if i%4 == 0 {
			wave[i] = float64(3 + i%3)
		} else {
			wave[i] = float64(i % 2)
		}
	}
	// A burst larger than anything before it raises each column's scale
	// in turn as it slides through the lag window.
	burst := append(append([]float64(nil), wave[:40]...), 11)
	burst = append(burst, wave[40:80]...)

	for _, tc := range []struct {
		name          string
		counts        []float64
		lag, maxHist  int
		lambda, gamma float64
		wantJitter    bool
		foreign       bool
		wantKV        bool
	}{
		{name: "growing history", counts: wave[:100], lag: 4, maxHist: 1000, lambda: 0.01, gamma: 0.05},
		{name: "history cap shifts the prefix", counts: wave, lag: 4, maxHist: 32, lambda: 0.01, gamma: 0.05},
		{name: "scale raised mid-sequence", counts: burst, lag: 4, maxHist: 1000, lambda: 0.01, gamma: 0.05},
		{name: "scale lowered as the cap trims a burst", counts: burst, lag: 4, maxHist: 24, lambda: 0.01, gamma: 0.05},
		{name: "forecaster geometry", counts: wave, lag: 16, maxHist: 128, lambda: 0.01, gamma: 0.05, wantKV: true},
		// A Predict on features no row holds sits between the fits: every
		// refit must refuse its kernel vector and still equal a cold fit.
		{name: "predict on foreign features", counts: wave, lag: 16, maxHist: 128, lambda: 0.01, gamma: 0.05, foreign: true},
		// λ=0 and a repeat of the first lag window: the warm factor hits
		// a zero pivot on the new row and the jitter ladder restarts from
		// row 0, after which every refit is cold.
		{name: "jitter after a warm prefix", counts: []float64{1, 2, 3, 1, 2, 5, 4, 1, 2, 3, 6},
			lag: 2, maxHist: 1000, lambda: 0, gamma: 1, wantJitter: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := replayWarmRefit(t, tc.counts, tc.lag, tc.maxHist, tc.lambda, tc.gamma, tc.foreign)
			if st.warm == 0 || st.fits == 0 {
				t.Fatalf("sequence exercised %d warm refits of %d fits", st.warm, st.fits)
			}
			if tc.wantKV && st.kvReused == 0 {
				t.Fatalf("no refit of %d (%d warm) reused Predict's kernel vector", st.fits, st.warm)
			}
			if st.warm == st.fits && tc.maxHist < len(tc.counts) {
				t.Fatalf("every fit was warm although the history cap shifted the rows")
			}
			if tc.wantJitter && st.jittered == 0 {
				t.Fatal("no fit needed jitter")
			}
		})
	}
}

// FuzzKRRWarmRefit replays arbitrary append-only sequences of small
// window counts through replayWarmRefit: the first two bytes pick the lag,
// whether λ is 0 (singular kernels, the jitter ladder) and whether a
// Predict on foreign features follows every fit; the rest are counts (the
// high bit of a byte makes it a burst that raises a scale).
func FuzzKRRWarmRefit(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 1, 2, 5, 4, 1, 2, 3, 6})
	f.Add([]byte{4, 1, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 200, 0, 1, 0, 4, 0, 0, 0})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 200 {
			return
		}
		lag := 1 + int(data[0]%6)
		lambda := 0.01
		if data[1]%2 == 0 {
			lambda = 0
		}
		counts := make([]float64, 0, len(data)-2)
		for _, b := range data[2:] {
			c := float64(b % 8)
			if b&0x80 != 0 {
				c = float64(b % 32)
			}
			counts = append(counts, c)
		}
		replayWarmRefit(t, counts, lag, 4*lag+2, lambda, 0.05, data[1]&2 != 0)
	})
}

// TestKRRKernelReuseGuards refits over rows that extend the last fit's
// after a Predict whose kernel vector must not serve the new row, and
// requires each refit to refuse it and equal a cold fit bit for bit. The
// first case is the control: Predict evaluated exactly the one new row.
func TestKRRKernelReuseGuards(t *testing.T) {
	// Columns stay within max-abs 4 and 3 through row 4; row 5 raises
	// column 0's to 8 while its scaled features still read (1, 1).
	rows := [][]float64{{1, 2}, {4, 1}, {2, 3}, {3, 2}, {1, 1}, {8, 3}}
	y := []float64{1, 4, 2, 5, 3, 6}
	flat := func(n int) []float64 {
		var x []float64
		for _, r := range rows[:n] {
			x = append(x, r...)
		}
		return x
	}
	for _, tc := range []struct {
		name    string
		before  int       // rows of the first fit
		feat    []float64 // the Predict between the fits
		regamma bool      // Predict runs under a changed γ
		after   int       // rows of the refit
		wantKV  bool
	}{
		{name: "one new row that Predict evaluated", before: 3, feat: rows[3], after: 4, wantKV: true},
		{name: "foreign features", before: 3, feat: []float64{3, 2.5}, after: 4},
		{name: "two new rows, the last one predicted", before: 3, feat: rows[4], after: 5},
		{name: "scale raised, scaled features equal", before: 5, feat: []float64{4, 3}, after: 6},
		{name: "gamma changed for the predict", before: 3, feat: rows[3], regamma: true, after: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm := NewKRR(0.01, 0.05)
			if err := warm.FitRows(flat(tc.before), tc.before, 2, y[:tc.before]); err != nil {
				t.Fatal(err)
			}
			if tc.regamma {
				warm.Gamma = 0.5
			}
			if _, err := warm.Predict(tc.feat); err != nil {
				t.Fatal(err)
			}
			warm.Gamma = 0.05
			if err := warm.FitRows(flat(tc.after), tc.after, 2, y[:tc.after]); err != nil {
				t.Fatal(err)
			}
			if warm.kvUsed != tc.wantKV {
				t.Fatalf("refit reused the kernel vector: %v, want %v", warm.kvUsed, tc.wantKV)
			}
			cold := NewKRR(0.01, 0.05)
			if err := cold.FitRows(flat(tc.after), tc.after, 2, y[:tc.after]); err != nil {
				t.Fatal(err)
			}
			for i := range cold.alpha {
				if math.Float64bits(warm.alpha[i]) != math.Float64bits(cold.alpha[i]) {
					t.Fatalf("alpha[%d] = %v after the refit, %v cold", i, warm.alpha[i], cold.alpha[i])
				}
			}
			wp, _ := warm.Predict([]float64{2, 2})
			cp, _ := cold.Predict([]float64{2, 2})
			if math.Float64bits(wp) != math.Float64bits(cp) {
				t.Fatalf("predict = %v after the refit, %v cold", wp, cp)
			}
		})
	}
}
