package region

import (
	"math"
	"testing"
)

func TestForecasterDefaultsAndRolls(t *testing.T) {
	f := NewForecaster(0, 0, 0)
	if f.Window() != 0.25 {
		t.Fatalf("default window = %g, want 0.25", f.Window())
	}
	f = NewForecaster(1, 0.5, 4)
	f.Observe("a", 0.1)
	f.Observe("a", 0.2)
	if got := f.Predict("a"); got != 0 {
		t.Fatalf("prediction before any closed window = %g, want 0", got)
	}
	// Rolling past t=1 closes window 0 with count 2: EWMA = 0.5*2 = 1.
	f.RollTo(1.5)
	if got := f.Predict("a"); got != 1 {
		t.Fatalf("EWMA after one window of 2 = %g, want 1", got)
	}
	// Two empty windows decay it: absence is signal.
	f.RollTo(3.5)
	if got := f.Predict("a"); got != 0.25 {
		t.Fatalf("EWMA after two empty windows = %g, want 0.25", got)
	}
	if apps := f.Apps(); len(apps) != 1 || apps[0] != "a" {
		t.Fatalf("Apps = %v, want [a]", apps)
	}
	if got := f.Predict("never-seen"); got != 0 {
		t.Fatalf("prediction for unseen app = %g, want 0", got)
	}
}

// TestForecasterPredictsPeriodicReturn is the case EWMA cannot handle:
// a traffic wave visiting the region every 4 windows. During the silent
// windows the EWMA decays toward zero, but the KRR autoregression — fed
// lag windows covering a full period — sees the wave coming back.
func TestForecasterPredictsPeriodicReturn(t *testing.T) {
	f := NewForecaster(1, 0.5, 4)
	// 10 periods of [4, 0, 0, 0]: bursts of 4 arrivals at t = 4k.
	for k := 0; k < 10; k++ {
		base := float64(4 * k)
		for j := 0; j < 4; j++ {
			f.Observe("wave", base+0.1)
		}
	}
	// Close everything through t=40: history ends [..., 4, 0, 0, 0] — the
	// next window is a burst window.
	f.RollTo(40)
	ewma := 0.0
	for _, c := range f.series[f.index["wave"]].hist {
		ewma = 0.5*c + 0.5*ewma
	}
	if ewma >= 1 {
		t.Fatalf("EWMA baseline %g should have decayed below 1 during the silent windows", ewma)
	}
	pred := f.Predict("wave")
	if pred < 2 {
		t.Fatalf("periodic-return prediction = %g, want the KRR to see the burst coming (>= 2)", pred)
	}
	// One window into the silence the same machinery must NOT fire: the
	// lag features [0, 0, 0, 4] map to a quiet window.
	f.RollTo(41)
	if quiet := f.Predict("wave"); quiet >= pred/2 {
		t.Fatalf("post-burst prediction %g not clearly below return prediction %g", quiet, pred)
	}
}

func TestForecasterPredictionNeverNegative(t *testing.T) {
	f := NewForecaster(1, 0.5, 2)
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			f.Observe("x", float64(i)+0.5)
		} else {
			f.RollTo(float64(i + 1))
		}
	}
	f.RollTo(20)
	if got := f.Predict("x"); got < 0 || math.IsNaN(got) {
		t.Fatalf("prediction = %g, want clamped >= 0 and finite", got)
	}
}

// observeWave records window w of a "wave" app whose counts repeat
// every 12 windows.
func observeWave(f *Forecaster, w int) {
	for j := 0; j < (w%4)*(w%3); j++ {
		f.Observe("wave", float64(w)+0.1)
	}
}

// fullForecaster returns a forecaster whose "wave" history is at its
// 8×lag cap after 150 windows.
func fullForecaster() *Forecaster {
	f := NewForecaster(1, 0.5, 16)
	for w := 0; w < 150; w++ {
		observeWave(f, w)
	}
	f.RollTo(150)
	return f
}

// TestForecasterPredictAllocFree pins steady-state Predict at zero
// allocations: the KRR refits into buffers it owns, reading the lagged
// rows and the features in place from the history.
func TestForecasterPredictAllocFree(t *testing.T) {
	f := fullForecaster()
	if n := len(f.series[0].hist); n != 8*f.lag {
		t.Fatalf("history holds %d windows, want the 8×lag cap %d", n, 8*f.lag)
	}
	if got := testing.AllocsPerRun(100, func() { f.Predict("wave") }); got > 0 {
		t.Errorf("Predict allocates %.1f per run, budget 0", got)
	}
}

// BenchmarkForecasterPredict is the region layer's forecast cost.
// "same-window" repeats Predict within one window on a full 8×lag history
// (every refit reuses all rows), "new-window" closes a window before each
// Predict on a full history (the capped history shifts, so the refit is
// cold), and "growing" closes a window before each Predict while the
// history stays below its cap, the regime of a region-wave episode: every
// refit adds one row, and the forecaster restarts after 50 windows.
func BenchmarkForecasterPredict(b *testing.B) {
	b.Run("same-window", func(b *testing.B) {
		f := fullForecaster()
		b.ReportAllocs()
		for b.Loop() {
			f.Predict("wave")
		}
	})
	b.Run("new-window", func(b *testing.B) {
		f := fullForecaster()
		w := 150
		b.ReportAllocs()
		for b.Loop() {
			observeWave(f, w)
			w++
			f.RollTo(float64(w))
			f.Predict("wave")
		}
	})
	b.Run("growing", func(b *testing.B) {
		// A b.N loop: with go1.24, b.Loop around a StopTimer/StartTimer
		// pair never ends its ramp-up.
		const episode = 50
		var f *Forecaster
		w := episode
		b.ReportAllocs()
		for range b.N {
			if w == episode {
				b.StopTimer()
				f = NewForecaster(1, 0.5, 16)
				for w = 0; w < f.minFit; w++ {
					observeWave(f, w)
				}
				f.RollTo(float64(w))
				b.StartTimer()
			}
			observeWave(f, w)
			w++
			f.RollTo(float64(w))
			f.Predict("wave")
		}
	})
}
