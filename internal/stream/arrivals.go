package stream

import "math"

// Arrivals is a modelled open arrival process: Next returns the
// interarrival gap (modelled seconds, always > 0) to the following event,
// advancing the process's internal state. Implementations must be
// deterministic in call order. Each pipeline draws from its own process,
// in its own event order (a window's gaps are drawn when it opens), so a
// seeded process yields the same event train on every run and every
// GOMAXPROCS setting, whatever the other pipelines do.
type Arrivals interface {
	Next() float64
}

// rng is a splitmix64 generator: tiny, allocation-free, and with an exact
// cross-platform output sequence (no math/rand version dependence on the
// determinism contract).
type rng struct{ state uint64 }

func newRNG(seed uint64) rng { return rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// exp returns a unit-mean exponential draw, clamped positive so gap
// sequences are strictly increasing in time.
func (r *rng) exp() float64 {
	e := -math.Log(1 - r.float64())
	if e <= 0 {
		return 1e-12
	}
	return e
}

// Poisson is a homogeneous Poisson process: exponential interarrival gaps
// at a constant rate (events per modelled second).
type Poisson struct {
	rate float64
	rng  rng
}

// NewPoisson builds a Poisson arrival process.
func NewPoisson(rate float64, seed uint64) *Poisson {
	if rate <= 0 {
		rate = 1
	}
	return &Poisson{rate: rate, rng: newRNG(seed)}
}

// Next returns the gap to the next arrival.
func (p *Poisson) Next() float64 { return p.rng.exp() / p.rate }

// Bursty is an on/off modulated Poisson process (an interrupted Poisson
// process): during a burst the rate is Burst x the base rate, between
// bursts it falls back to the base rate. Burst and quiet phase lengths are
// themselves exponential, so the event train shows the heavy-tailed
// clumping real sensor gateways produce (buffered uplinks flushing).
type Bursty struct {
	base   float64 // events/s outside bursts
	burst  float64 // rate multiplier inside a burst
	onLen  float64 // mean burst length, modelled seconds
	offLen float64 // mean quiet length, modelled seconds
	rng    rng

	inBurst   bool
	phaseLeft float64 // modelled time left in the current phase
}

// NewBursty builds a bursty arrival process with mean rate `base` outside
// bursts and base*burst inside; on/off are the mean burst/quiet durations.
func NewBursty(base, burst, on, off float64, seed uint64) *Bursty {
	if base <= 0 {
		base = 1
	}
	if burst < 1 {
		burst = 1
	}
	if on <= 0 {
		on = 1
	}
	if off <= 0 {
		off = 1
	}
	return &Bursty{base: base, burst: burst, onLen: on, offLen: off, rng: newRNG(seed)}
}

// Next returns the gap to the next arrival, crossing phase boundaries as
// needed (a gap that would overrun the current phase is resampled from the
// boundary, which keeps the process Markovian and the gap strictly
// positive).
func (b *Bursty) Next() float64 {
	gap := 0.0
	for {
		if b.phaseLeft <= 0 {
			b.inBurst = !b.inBurst
			if b.inBurst {
				b.phaseLeft = b.rng.exp() * b.onLen
			} else {
				b.phaseLeft = b.rng.exp() * b.offLen
			}
		}
		rate := b.base
		if b.inBurst {
			rate *= b.burst
		}
		g := b.rng.exp() / rate
		if g <= b.phaseLeft {
			b.phaseLeft -= g
			return gap + g
		}
		// The draw lands past the phase boundary: consume the remainder of
		// the phase and redraw under the next phase's rate (memorylessness
		// of the exponential makes this exact thinning-free switching).
		gap += b.phaseLeft
		b.phaseLeft = 0
	}
}

// Diurnal is a nonhomogeneous Poisson process with a sinusoidal daily rate
// profile: rate(t) = mean * (1 + swing*sin(2*pi*t/period)), sampled by
// Lewis-Shedler thinning against the peak rate. Traffic and energy feeds
// follow this shape (rush hours, daily consumption cycles).
type Diurnal struct {
	mean   float64
	swing  float64 // relative amplitude in [0, 1)
	period float64 // modelled seconds per cycle
	rng    rng
	t      float64 // modelled time of the last arrival
}

// NewDiurnal builds a diurnal arrival process with the given mean rate,
// relative swing (clamped to [0, 0.95]), and cycle period.
func NewDiurnal(mean, swing, period float64, seed uint64) *Diurnal {
	if mean <= 0 {
		mean = 1
	}
	if swing < 0 {
		swing = 0
	}
	if swing > 0.95 {
		swing = 0.95
	}
	if period <= 0 {
		period = 86400
	}
	return &Diurnal{mean: mean, swing: swing, period: period, rng: newRNG(seed)}
}

// Next returns the gap to the next arrival via thinning: candidate gaps
// are drawn at the peak rate and accepted with probability rate(t)/peak.
func (d *Diurnal) Next() float64 {
	peak := d.mean * (1 + d.swing)
	start := d.t
	for {
		d.t += d.rng.exp() / peak
		rate := d.mean * (1 + d.swing*math.Sin(2*math.Pi*d.t/d.period))
		if d.rng.float64()*peak <= rate {
			return d.t - start
		}
	}
}

// NewArrivals builds a named arrival process at the given mean event rate:
// "poisson" (default), "bursty" (4x bursts, 30s on / 90s off), or
// "diurnal" (60% swing over a 1-hour modelled cycle, compressed from a day
// so scenario-length runs actually cross the peak and trough).
func NewArrivals(kind string, rate float64, seed uint64) Arrivals {
	switch kind {
	case "bursty":
		// Mean rate is preserved: base*(off + burst*on)/(on+off) = rate.
		on, off, burst := 30.0, 90.0, 4.0
		base := rate * (on + off) / (off + burst*on)
		return NewBursty(base, burst, on, off, seed)
	case "diurnal":
		return NewDiurnal(rate, 0.6, 3600, seed)
	default:
		return NewPoisson(rate, seed)
	}
}
