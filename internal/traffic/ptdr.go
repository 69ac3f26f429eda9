package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"everest/internal/base2"
	"everest/internal/hls"
)

// SpeedProfile holds, per edge and per 15-minute interval of a weekday, the
// lognormal parameters of the traversal speed — the "macroscopic parameters
// for each road segment ... for each 15-minute interval" of §II-D.
type SpeedProfile struct {
	Bins int // intervals per day (96)
	// MuSigma[edge][bin] = (mu, sigma) of log-speed.
	MuSigma map[int][][2]float64
}

// BuildProfile derives a speed profile from the network's free-flow speeds
// with congestion dips, seeded for determinism.
func BuildProfile(net *Network, seed int64) *SpeedProfile {
	p := &SpeedProfile{Bins: 96, MuSigma: make(map[int][][2]float64)}
	for e := range net.Edges {
		curve := DailySpeedCurve(net.Edges[e].SpeedLim, seed+int64(e))
		ms := make([][2]float64, p.Bins)
		for b, v := range curve {
			// Lognormal with ~18% coefficient of variation.
			ms[b] = [2]float64{math.Log(v), 0.18}
		}
		p.MuSigma[e] = ms
	}
	return p
}

// SampleTravelTime draws one Monte-Carlo travel time (seconds) over the
// route departing at departSec into the day. Speeds are drawn per edge from
// the profile of the interval the vehicle is in when entering the edge —
// the time-dependent part of PTDR.
func (p *SpeedProfile) SampleTravelTime(net *Network, route []int, departSec float64, rng *rand.Rand) (float64, error) {
	t := departSec
	for _, eid := range route {
		ms, ok := p.MuSigma[eid]
		if !ok {
			return 0, fmt.Errorf("traffic: edge %d has no speed profile", eid)
		}
		bin := int(t/900) % p.Bins
		if bin < 0 {
			bin += p.Bins
		}
		speed := math.Exp(ms[bin][0] + rng.NormFloat64()*ms[bin][1])
		if speed < 0.5 {
			speed = 0.5
		}
		t += net.Edges[eid].Length / speed
	}
	return t - departSec, nil
}

// PTDRResult is the travel-time distribution summary the routing layer
// consumes ("Probabilistic Time Dependent Routing to infer correct arrival
// times").
type PTDRResult struct {
	Samples    int
	Mean       float64
	P05        float64
	P50        float64
	P95        float64
	FlopsTotal float64 // modelled work, for the CPU/FPGA comparison
}

// MonteCarlo runs n travel-time samples and summarizes the distribution.
func MonteCarlo(net *Network, p *SpeedProfile, route []int, departSec float64, n int, seed int64) (*PTDRResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("traffic: need at least one sample")
	}
	if len(route) == 0 {
		return nil, fmt.Errorf("traffic: empty route")
	}
	rng := rand.New(rand.NewSource(seed))
	times := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		t, err := p.SampleTravelTime(net, route, departSec, rng)
		if err != nil {
			return nil, err
		}
		times[i] = t
		sum += t
	}
	sort.Float64s(times)
	q := func(f float64) float64 {
		pos := f * float64(n-1)
		lo := int(pos)
		hi := lo
		if hi+1 < n {
			hi++
		}
		frac := pos - float64(lo)
		return times[lo]*(1-frac) + times[hi]*frac
	}
	return &PTDRResult{
		Samples: n, Mean: sum / float64(n),
		P05: q(0.05), P50: q(0.50), P95: q(0.95),
		FlopsTotal: FlopsPerSample(len(route)) * float64(n),
	}, nil
}

// FlopsPerSample models the per-sample arithmetic of the PTDR kernel: per
// edge one lognormal draw (~12 flops incl. exp) plus accumulation.
func FlopsPerSample(routeLen int) float64 { return float64(routeLen) * 14 }

// PTDRKernel returns the HLS kernel specification of the Monte-Carlo
// sampler for FPGA offload (§VIII: "we also implemented the PTDR kernel on
// a compute cluster with Alveo u55c FPGAs").
func PTDRKernel(routeLen, samples int) hls.Kernel {
	return hls.Kernel{
		Name: "ptdr_mc",
		Nest: hls.LoopNest{
			TripCounts: []int{samples, routeLen},
			// Per edge: profile load, gaussian draw (special), exp
			// (special), divide, accumulate.
			Body:      hls.OpMix{Adds: 3, Muls: 2, Divs: 1, Special: 2, Loads: 2},
			Reduction: false, // samples are independent
		},
		Format:      base2.Float32{},
		BufferBytes: int64(routeLen * 96 * 8), // per-bin profile in PLM
	}
}

// PTDRBytes returns the host<->device payload of one PTDR batch: the route
// profile in, the sampled quantiles out (per-sample times stay on device).
func PTDRBytes(routeLen, samples int) (in, out int64) {
	return int64(routeLen * 96 * 8), int64(samples * 4)
}
