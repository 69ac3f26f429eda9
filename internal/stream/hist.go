package stream

import (
	"math"

	"everest/internal/quantile"
)

// Latency histogram used on the steady-state per-event path: log-spaced
// buckets (8 linear sub-buckets per power-of-two octave above a 1 µs
// floor), so recording is one division and a read of the quotient's
// bits — no allocation, no sort, O(1) — and a million-event stream costs
// a 512-entry array instead of a million float64s. Percentiles quantize
// to the recorded bucket's upper edge (≤ ~9% relative error), which is
// far inside the benchmark gate's tolerance and exactly deterministic.

// histMin is the histogram floor: latencies below 1 µs land in bucket 0.
const histMin = 1e-6

// histOctaves spans 1 µs .. ~1.8e13 s; anything above clamps to the top.
const histOctaves = 64

// histSub is the number of linear sub-buckets per octave.
const histSub = 8

type hist struct {
	count   int64
	sum     float64
	max     float64
	buckets [histOctaves * histSub]int64
}

// bucketOf maps a latency to its bucket index. The quotient x = lat/histMin
// is at least 1 there, so its unbiased exponent is the octave and the top
// three bits of its mantissa are the linear sub-bucket: x = 2^oct·(1+m),
// and sub = ⌊8m⌋.
func bucketOf(lat float64) int {
	if lat < histMin {
		return 0
	}
	bits := math.Float64bits(lat / histMin)
	oct := int(bits>>52) - 1023 // sign bit clear: x >= 1
	if oct >= histOctaves {
		return histOctaves*histSub - 1
	}
	sub := int(bits>>(52-3)) & (histSub - 1)
	return oct*histSub + sub
}

// bucketUpper is the upper-edge latency of a bucket, the value percentiles
// report.
func bucketUpper(idx int) float64 {
	oct := idx / histSub
	sub := idx % histSub
	lo := histMin * math.Ldexp(1, oct)
	return lo * (0.5 + float64(sub+1)/(2*histSub)) * 2
}

// add records one latency.
func (h *hist) add(lat float64) {
	h.count++
	h.sum += lat
	if lat > h.max {
		h.max = lat
	}
	h.buckets[bucketOf(lat)]++
}

// merge folds another histogram into h.
func (h *hist) merge(o *hist) {
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// percentile returns the nearest-rank q-quantile (q in (0, 1]) as the
// holding bucket's upper edge; 0 when the histogram is empty.
func (h *hist) percentile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	// quantile.NearestRank snaps q·count back onto intended integer ranks
	// (0.95×20 would otherwise ceil to 21st-rank semantics one rank high).
	rank := quantile.NearestRank(q, h.count)
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i]
		if seen >= rank {
			up := bucketUpper(i)
			if up > h.max {
				return h.max
			}
			return up
		}
	}
	return h.max
}

// mean returns the average recorded latency.
func (h *hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}
