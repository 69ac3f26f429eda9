package energy

import (
	"math"
	"testing"
)

// warmStats counts what a refit sequence exercised.
type warmStats struct {
	fits     int // successful fits
	warm     int // fits that reused a previous fit's rows
	jittered int // fits that needed diagonal jitter
}

// replayWarmRefit drives one KRR the way the region forecaster does:
// window counts arrive one at a time, the history is capped at maxHist
// (the prefix shifts once it is full), and after every arrival the
// regressor is refitted on the lagged rows — row i is hist[i:i+lag], its
// target hist[i+lag] — and asked for the next window. Every warm refit
// must equal a fresh cold fit bit for bit: the error outcome, the dual
// coefficients and the prediction.
func replayWarmRefit(t testing.TB, counts []float64, lag, maxHist int, lambda, gamma float64) warmStats {
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
		reused := warm.prefixRows(rows, n, lag) > 0
		warmErr := warm.FitRows(rows, n, lag, hist[lag:])
		cold := NewKRR(lambda, gamma)
		coldErr := cold.FitRows(rows, n, lag, hist[lag:])
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("step %d: warm error %v, cold error %v", step, warmErr, coldErr)
		}
		if coldErr != nil {
			continue
		}
		st.fits++
		if reused {
			st.warm++
		}
		if !cold.exact {
			st.jittered++
		}
		if warm.exact != cold.exact {
			t.Fatalf("step %d: warm fit exact=%v, cold exact=%v", step, warm.exact, cold.exact)
		}
		for i := range cold.alpha {
			if math.Float64bits(warm.alpha[i]) != math.Float64bits(cold.alpha[i]) {
				t.Fatalf("step %d (n=%d, reused=%v): alpha[%d] = %v warm, %v cold", step, n, reused, i, warm.alpha[i], cold.alpha[i])
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
	}{
		{name: "growing history", counts: wave[:100], lag: 4, maxHist: 1000, lambda: 0.01, gamma: 0.05},
		{name: "history cap shifts the prefix", counts: wave, lag: 4, maxHist: 32, lambda: 0.01, gamma: 0.05},
		{name: "scale raised mid-sequence", counts: burst, lag: 4, maxHist: 1000, lambda: 0.01, gamma: 0.05},
		{name: "scale lowered as the cap trims a burst", counts: burst, lag: 4, maxHist: 24, lambda: 0.01, gamma: 0.05},
		{name: "forecaster geometry", counts: wave, lag: 16, maxHist: 128, lambda: 0.01, gamma: 0.05},
		// λ=0 and a repeat of the first lag window: the warm factor hits
		// a zero pivot on the new row and the jitter ladder restarts from
		// row 0, after which every refit is cold.
		{name: "jitter after a warm prefix", counts: []float64{1, 2, 3, 1, 2, 5, 4, 1, 2, 3, 6},
			lag: 2, maxHist: 1000, lambda: 0, gamma: 1, wantJitter: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := replayWarmRefit(t, tc.counts, tc.lag, tc.maxHist, tc.lambda, tc.gamma)
			if st.warm == 0 || st.fits == 0 {
				t.Fatalf("sequence exercised %d warm refits of %d fits", st.warm, st.fits)
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
// window counts through replayWarmRefit: the first two bytes pick the lag
// and whether λ is 0 (singular kernels, the jitter ladder), the rest are
// counts (the high bit of a byte makes it a burst that raises a scale).
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
		replayWarmRefit(t, counts, lag, 4*lag+2, lambda, 0.05)
	})
}
