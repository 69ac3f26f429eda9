package energy

import (
	"math"
	"runtime"
	"testing"
)

// warmStats counts what a refit sequence exercised.
type warmStats struct {
	fits     int // successful fits
	warm     int // fits that reused a previous fit's rows
	kvReused int // fits that took the new row's kernel entries from Predict
	jittered int // fits that needed diagonal jitter
}

// laggedKRR returns a regressor whose lagged series holds series.
func laggedKRR(lambda, gamma float64, series []float64) *KRR {
	k := NewKRR(lambda, gamma)
	for _, v := range series {
		k.Append(v)
	}
	return k
}

// lagVec gathers per-row vector which (vecU or vecV) of k's lagged
// fit from the factor's blocks.
func lagVec(k *KRR, which int) []float64 {
	x := make([]float64, k.n)
	for i := range x {
		x[i] = k.vec(i/cholBlock, which)[i%cholBlock]
	}
	return x
}

// replayWarmRefit drives one KRR the way the region forecaster does:
// window counts arrive one at a time (Append), the history is trimmed to
// maxHist (the rows shift once it is full), and after every arrival the
// regressor is refitted on the history's lag windows (FitLagged) and
// asked for the next window. Every refit must equal, bit for bit, a
// fresh KRR's FitLagged and the reference's FitLagged on the same
// history: the error outcome, the forward solves u = L⁻¹y and v = L⁻¹1,
// and the prediction; every refit after a trim must be cold.
// With foreign set, the regressor is also asked about features no later
// row holds after every fit, so the next fit must not reuse that
// Predict's kernel vector. halve, when not nil, picks the steps before
// whose count the history is also trimmed to half its length.
func replayWarmRefit(t testing.TB, counts []float64, lag, maxHist int, lambda, gamma float64, foreign bool, halve func(step int) bool) warmStats {
	t.Helper()
	var st warmStats
	warm := NewKRR(lambda, gamma)
	ref := &refKRR{Lambda: lambda, Gamma: gamma}
	trimmed := false // a trim dropped values since the last refit
	for step, c := range counts {
		before := len(warm.Series())
		if halve != nil && halve(step) {
			warm.Trim(before / 2)
			ref.Trim(before / 2)
		}
		warm.Append(c)
		ref.Append(c)
		warm.Trim(maxHist)
		ref.Trim(maxHist)
		hist := warm.Series()
		trimmed = trimmed || len(hist) <= before
		if !sameBits(hist, ref.series) {
			t.Fatalf("step %d: series %v, reference %v", step, hist, ref.series)
		}
		n := len(hist) - lag
		if n < 2 {
			continue
		}
		warmErr := warm.FitLagged(lag)
		cold := laggedKRR(lambda, gamma, hist)
		coldErr := cold.FitLagged(lag)
		refErr := ref.FitLagged(lag)
		if (warmErr == nil) != (coldErr == nil) || (refErr == nil) != (coldErr == nil) {
			t.Fatalf("step %d: warm error %v, cold error %v, reference error %v", step, warmErr, coldErr, refErr)
		}
		wasTrimmed := trimmed
		trimmed = false
		if coldErr != nil {
			continue
		}
		st.fits++
		if warm.kept > 0 {
			st.warm++
			if wasTrimmed {
				t.Fatalf("step %d: the refit after a trim kept %d rows, want a cold fit", step, warm.kept)
			}
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
		for _, vec := range []struct {
			name             string
			warm, cold, want []float64
		}{
			{"u", lagVec(warm, vecU), lagVec(cold, vecU), ref.u},
			{"v", lagVec(warm, vecV), lagVec(cold, vecV), ref.v},
		} {
			for i, w := range vec.warm {
				if math.Float64bits(w) != math.Float64bits(vec.cold[i]) {
					t.Fatalf("step %d (n=%d, kept=%d, kv=%v): %s[%d] = %v warm, %v cold", step, n, warm.kept, warm.kvUsed, vec.name, i, w, vec.cold[i])
				}
				if math.Float64bits(w) != math.Float64bits(vec.want[i]) {
					t.Fatalf("step %d (n=%d, kept=%d): %s[%d] = %v warm, %v reference", step, n, warm.kept, vec.name, i, w, vec.want[i])
				}
			}
		}
		feat := hist[len(hist)-lag:]
		wp, err := warm.Predict(feat)
		if err != nil {
			t.Fatal(err)
		}
		cp, _ := cold.Predict(feat)
		rp, _ := ref.Predict(feat)
		if math.Float64bits(wp) != math.Float64bits(cp) || math.Float64bits(wp) != math.Float64bits(rp) {
			t.Fatalf("step %d: warm predict %v, cold %v, reference %v", step, wp, cp, rp)
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
	wave := waveCounts(140)
	// A burst larger than anything before it raises the series scale
	// once, when it enters the rows' span.
	burst := burstWave(40, 40)

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
		// Capped zeros shift onto the same bits, so the rows look kept,
		// and the last target changes when the 1 arrives: the trim
		// alone must turn the refit cold.
		{name: "capped history keeps its rows, last target changes", counts: append(make([]float64, 24), 1),
			lag: 4, maxHist: 16, lambda: 0.01, gamma: 0.05},
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
			st := replayWarmRefit(t, tc.counts, tc.lag, tc.maxHist, tc.lambda, tc.gamma, tc.foreign, nil)
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

// waveCounts returns n window counts of a period-4 wave of small
// integers up to 5.
func waveCounts(n int) []float64 {
	wave := make([]float64, n)
	for i := range wave {
		if i%4 == 0 {
			wave[i] = float64(3 + i%3)
		} else {
			wave[i] = float64(i % 2)
		}
	}
	return wave
}

// burstWave is waveCounts(before+after) with a burst of 11, a new series
// maximum, inserted after its first before counts.
func burstWave(before, after int) []float64 {
	wave := waveCounts(before + after)
	return append(append(wave[:before:before], 11), wave[before:]...)
}

// TestKRRNewMaximumRefitsColdOnce pins the work one new series maximum
// costs the forecaster's regressor: a lag-16 history of the wave grows
// window by window past a burst (Append), refitted (FitLagged) after
// every window, and every refit after the first must reuse the previous
// factor except the one whose rows first span the burst. Under a scale
// per lag column, before the one-scale rule, the burst raised each
// column's scale in turn as it slid through the lag window, and 16 of
// the same sequence's 41 refits went cold.
func TestKRRNewMaximumRefitsColdOnce(t *testing.T) {
	const lag = 16
	counts := burstWave(40, 40)
	krr := laggedKRR(0.01, 0.05, counts[:39])
	fits, cold, coldRows := 0, 0, 0
	for end := 40; end <= len(counts); end++ {
		krr.Append(counts[end-1])
		if err := krr.FitLagged(lag); err != nil {
			t.Fatal(err)
		}
		if fits++; fits > 1 && krr.kept == 0 {
			cold++
			coldRows = end - lag
		}
	}
	if cold != 1 {
		t.Fatalf("%d of %d refits were cold, want 1", cold, fits-1)
	}
	// The burst is value 40, first in the rows' span (series[:end-1])
	// at end 42, when the fit has 26 rows.
	if coldRows != 26 {
		t.Fatalf("the cold refit had %d rows, want 26", coldRows)
	}
}

// TestKRRFactorRowsStayPut replays one forecaster series at lag 16:
// the history grows window by window to the 8×lag cap and is trimmed
// past it, and the regressor is refitted in place (FitLagged) and asked
// for the next window after each one, from minFit = lag+4 windows on.
// Adding rows must never move a factor row the regressor holds: row 0
// keeps its backing array while the factor grows to 112 rows. The whole
// replay, 144 windows, allocates at most seriesBytes; a factor that was
// reallocated and copied as it grew allocated 189 KB. Blocked rows
// allocate 72 KB, which includes the final factor's 52 KB, the 8 KB
// block of the row Predict fills and the history the regressor owns.
func TestKRRFactorRowsStayPut(t *testing.T) {
	const lag, maxHist, windows = 16, 8 * 16, 144
	const seriesBytes = 80 << 10
	counts := waveCounts(windows)
	k := DefaultKRR()
	var row0 *float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for w := 1; w <= windows; w++ {
		k.Append(counts[w-1])
		k.Trim(maxHist)
		if w < lag+4 {
			continue
		}
		if err := k.FitLagged(lag); err != nil {
			t.Fatal(err)
		}
		hist := k.Series()
		if _, err := k.Predict(hist[len(hist)-lag:]); err != nil {
			t.Fatal(err)
		}
		c := k.rows(0)
		if r0 := &c.next()[0]; row0 == nil {
			row0 = r0
		} else if r0 != row0 {
			t.Fatalf("window %d: %d rows moved factor row 0", w, k.n)
		}
	}
	runtime.ReadMemStats(&after)
	// The blocks hold one row more than the factor: the one the last
	// Predict forward-solved its kernel vector into.
	if want := maxHist - lag; k.n != want || len(k.chol) != want/cholBlock+1 {
		t.Fatalf("the factor ends with %d rows in %d blocks, want %d rows in %d", k.n, len(k.chol), want, want/cholBlock+1)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > seriesBytes {
		t.Errorf("one series through %d windows allocates %d B, budget %d", windows, got, seriesBytes)
	}
}

// TestKRRLaggedGrowthAllocs grows one forecaster series at lag 16 from
// minFit = lag+4 windows to the 8×lag cap, appending a window, refitting
// (FitLagged) and predicting at each, and counts every step's heap
// allocations. A step may allocate only new factor blocks (and the list
// that holds them) and the doubling of the history and of its scaled
// copy xs: the regressor keeps no second copy of the history, and u, v
// and Predict's kernel vector live in the factor's blocks, so none of
// them regrows.
func TestKRRLaggedGrowthAllocs(t *testing.T) {
	const lag, maxHist = 16, 8 * 16
	// What one regrowth of xs costs in this build: one object, or two
	// under the race detector, which keeps append's make apart.
	var buf []float64
	perGrow := uint64(testing.AllocsPerRun(10, func() { buf = grow(buf[:0:0], 8) }))
	counts := waveCounts(maxHist)
	k := laggedKRR(0.01, 0.05, counts[:lag+4])
	if err := k.FitLagged(lag); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Predict(counts[4 : lag+4]); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	grown := 0
	for w := lag + 5; w <= maxHist; w++ {
		histCap, xsCap, blocks, listCap := cap(k.series), cap(k.xs), len(k.chol), cap(k.chol)
		before := mallocs()
		k.Append(counts[w-1])
		if err := k.FitLagged(lag); err != nil {
			t.Fatal(err)
		}
		h := k.Series()
		if _, err := k.Predict(h[len(h)-lag:]); err != nil {
			t.Fatal(err)
		}
		got := mallocs() - before
		want := uint64(len(k.chol) - blocks)
		for _, changed := range []bool{cap(k.series) != histCap, cap(k.chol) != listCap} {
			if changed {
				want++
			}
		}
		if cap(k.xs) != xsCap {
			want += perGrow
		}
		if got != want {
			t.Errorf("window %d (%d rows): the step allocates %d objects, want %d", w, k.n, got, want)
		}
		grown += int(want)
	}
	if grown == 0 {
		t.Fatal("no step grew a buffer: the replay exercised no allocation")
	}
}

// TestKRRTrimRefitsCold trims a lag-16 series at the 8×lag cap window by
// window and requires every refit after a trim to be cold and to equal,
// bit for bit, a fresh regressor fitted on the trimmed series: the
// factor, u, v and the prediction. A history of zeros shifts onto the
// same bits, and its refits must be cold all the same.
func TestKRRTrimRefitsCold(t *testing.T) {
	const lag, maxHist = 16, 8 * 16
	for _, tc := range []struct {
		name   string
		counts []float64
	}{
		{"wave", waveCounts(maxHist + 24)},
		{"zeros", append(make([]float64, maxHist+8), 1, 0, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := DefaultKRR()
			trims := 0
			for w, c := range tc.counts {
				k.Append(c)
				k.Trim(maxHist)
				if w+1 < lag+4 {
					continue
				}
				if err := k.FitLagged(lag); err != nil {
					t.Fatal(err)
				}
				if w+1 > maxHist {
					trims++
					if k.kept != 0 {
						t.Fatalf("window %d: the refit after a trim kept %d rows, want a cold fit", w, k.kept)
					}
				}
				h := k.Series()
				fresh := laggedKRR(0.01, 0.05, h)
				if err := fresh.FitLagged(lag); err != nil {
					t.Fatal(err)
				}
				if !sameFactor(k, fresh) || !sameBits(lagVec(k, vecU), lagVec(fresh, vecU)) || !sameBits(lagVec(k, vecV), lagVec(fresh, vecV)) {
					t.Fatalf("window %d: the refit's factor or forward solves differ from a fresh fit's", w)
				}
				p, _ := k.Predict(h[len(h)-lag:])
				q, _ := fresh.Predict(h[len(h)-lag:])
				if math.Float64bits(p) != math.Float64bits(q) {
					t.Fatalf("window %d: predict = %v after the trim, %v fresh", w, p, q)
				}
			}
			if trims == 0 {
				t.Fatal("the series was never trimmed")
			}
		})
	}
}

// TestKRRWarmRollWork pins the work of a forecaster roll on a growing
// history: refitted in place (FitLagged) after every window and asked
// for the next one, every refit after the first keeps all previous
// factor rows, takes its one new row from the previous Predict's
// forward-solved kernel vector (so it computes only that row's
// diagonal), and runs no back substitution. FitRows over the same rows,
// the dual form, still runs one back substitution per fit, as every fit
// did before lagged fits kept forward solves.
func TestKRRWarmRollWork(t *testing.T) {
	const lag = 16
	counts := waveCounts(100)
	lagged, dual := DefaultKRR(), DefaultKRR()
	rolls := 0
	for _, c := range counts[:lag+1] {
		lagged.Append(c)
	}
	for end := lag + 2; end <= len(counts); end++ {
		hist := counts[:end]
		n := end - lag
		lagged.Append(hist[end-1])
		if err := lagged.FitLagged(lag); err != nil {
			t.Fatal(err)
		}
		rows := make([]float64, 0, n*lag)
		for i := range n {
			rows = append(rows, hist[i:i+lag]...)
		}
		if err := dual.FitRows(rows, n, lag, hist[lag:]); err != nil {
			t.Fatal(err)
		}
		if !dual.backSolved {
			t.Fatalf("n=%d: FitRows ran no back substitution", n)
		}
		if lagged.backSolved {
			t.Fatalf("n=%d: FitLagged ran a back substitution", n)
		}
		if end > lag+2 {
			rolls++
			if lagged.kept != n-1 || !lagged.kvUsed {
				t.Fatalf("n=%d: the refit kept %d of %d rows, new row from Predict %v; want a warm roll", n, lagged.kept, n-1, lagged.kvUsed)
			}
		}
		if _, err := lagged.Predict(hist[end-lag:]); err != nil {
			t.Fatal(err)
		}
		if _, err := dual.Predict(hist[end-lag:]); err != nil {
			t.Fatal(err)
		}
	}
	if rolls != len(counts)-lag-2 {
		t.Fatalf("%d warm rolls, want %d", rolls, len(counts)-lag-2)
	}
}

// TestKRRFormChangeRefitsCold: with one feature, FitRows over x[i] =
// series[i] and FitLagged with lag 1 read the same rows under the same
// scale, so a refit by the other entry point passes every other warm
// check. It must still refit cold: a dual fit holds α where a lagged
// refit would extend u, and after a lagged fit Predict leaves the new
// row's eliminated entries where a dual refit would read kernel entries.
// Each refit follows a Predict on its one new row and must equal a fresh
// fit by the same entry point bit for bit.
func TestKRRFormChangeRefitsCold(t *testing.T) {
	series := waveCounts(24)
	const n = 20 // rows of the first fit; the refit adds one
	fitRows := func(k *KRR, rows int) error { return k.FitRows(series[:rows], rows, 1, series[1:rows+1]) }
	fitLagged := func(k *KRR, rows int) error {
		for _, v := range series[len(k.Series()) : rows+1] {
			k.Append(v)
		}
		return k.FitLagged(1)
	}
	for _, tc := range []struct {
		name         string
		first, refit func(*KRR, int) error
	}{
		{"dual then lagged", fitRows, fitLagged},
		{"lagged then dual", fitLagged, fitRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm, cold := DefaultKRR(), DefaultKRR()
			if err := tc.first(warm, n); err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Predict(series[n : n+1]); err != nil {
				t.Fatal(err)
			}
			if err := tc.refit(warm, n+1); err != nil {
				t.Fatal(err)
			}
			if err := tc.refit(cold, n+1); err != nil {
				t.Fatal(err)
			}
			if warm.kept != 0 || warm.kvUsed {
				t.Fatalf("the refit kept %d rows, kernel vector reused %v; want a cold fit", warm.kept, warm.kvUsed)
			}
			same := sameFactor(warm, cold)
			if cold.lagged {
				same = same && sameBits(lagVec(warm, vecU), lagVec(cold, vecU)) && sameBits(lagVec(warm, vecV), lagVec(cold, vecV))
			} else {
				same = same && sameBits(warm.alpha[:n+1], cold.alpha)
			}
			if !same {
				t.Fatal("the refit's factor or solution differs from a fresh fit's")
			}
			feat := []float64{2}
			wp, _ := warm.Predict(feat)
			cp, _ := cold.Predict(feat)
			if math.Float64bits(wp) != math.Float64bits(cp) {
				t.Fatalf("predict = %v after the refit, %v fresh", wp, cp)
			}
		})
	}
}

// sameFactor reports whether a and b hold factors of the same order
// whose every row is the same bit for bit.
func sameFactor(a, b *KRR) bool {
	if a.n != b.n {
		return false
	}
	ca, cb := a.rows(0), b.rows(0)
	for range a.n {
		if !sameBits(ca.next(), cb.next()) {
			return false
		}
	}
	return true
}

// FuzzKRRWarmRefit replays arbitrary sequences of small window counts
// through replayWarmRefit: the first two bytes pick the lag, whether λ is
// 0 (singular kernels, the jitter ladder), whether a Predict on foreign
// features follows every fit, and whether a count byte with bit 6 set
// halves the history before it arrives (a Trim away from the cap); the
// rest are counts (the high bit of a byte makes it a burst that raises a
// scale).
func FuzzKRRWarmRefit(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 1, 2, 5, 4, 1, 2, 3, 6})
	f.Add([]byte{4, 1, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 200, 0, 1, 0, 4, 0, 0, 0})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 5, 1, 2, 3, 1, 2, 5, 4, 1, 2, 3, 6, 0x41, 2, 3, 1, 4, 2, 0xc3, 1, 2, 3})
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
		var halve func(int) bool
		if data[1]&4 != 0 {
			halve = func(step int) bool { return data[2+step]&0x40 != 0 }
		}
		replayWarmRefit(t, counts, lag, 4*lag+2, lambda, 0.05, data[1]&2 != 0, halve)
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
