package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"everest/internal/quantile"
)

// minBeyond is how many samples must lie beyond a percentile's rank for
// the percentile to be reported: a p99 over 500 samples rests on 5 values
// and is not measured, it is guessed.
const minBeyond = 10

// record accumulates every modelled result of one configuration (the
// nominal rate, or one ladder rung) across its episodes. Nothing in it
// depends on the host: two commits with the same model fill it
// identically, which the digest checks.
type record struct {
	attempted, completed, rejected, failed, shed int64

	// lat is the end-to-end modelled latency of every attempted op that
	// the workload's latency metric covers; an op that did not complete
	// is +Inf, so it misses every latency limit.
	lat []float64
	// span is the modelled time the episodes spanned, summed.
	span float64

	// samples holds per-layer modelled distributions, counts per-layer
	// modelled counters, both keyed by a layer-qualified name.
	samples map[string][]float64
	counts  map[string]float64

	// violations counts admitted guaranteed ops that missed their proven
	// bound, by the layers' own counters and by the benchmark's check of
	// each result against its bound.
	violations int64

	// digests holds one hash of every modelled result per episode.
	digests []uint64

	// errs lists the output checks that failed (the first few).
	errs []string
}

func newRecord() *record {
	return &record{samples: make(map[string][]float64), counts: make(map[string]float64)}
}

// maxErrs caps the failed checks a record keeps: one is enough to fail
// the run, a handful to diagnose it.
const maxErrs = 8

func (r *record) fail(format string, args ...any) {
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *record) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *record) count(name string, v float64) { r.counts[name] += v }

// miss records an attempted op that never completed.
func (r *record) miss() { r.lat = append(r.lat, math.Inf(1)) }

// throughput is completed ops per modelled second.
func (r *record) throughput() float64 {
	if r.span <= 0 {
		return 0
	}
	return float64(r.completed) / r.span
}

// failFrac is the share of attempted ops that were rejected, failed or
// shed.
func (r *record) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.rejected+r.failed+r.shed) / float64(r.attempted)
}

// digest folds the per-episode digests into one model digest.
func (r *record) digest() uint64 {
	d := newDigest()
	for _, x := range r.digests {
		d.u(x)
	}
	return d.sum()
}

// pct returns the nearest-rank q-quantile of xs, which it sorts in place.
// ok is false when fewer than minBeyond samples lie beyond the rank.
func pct(xs []float64, q float64) (v float64, ok bool) {
	n := int64(len(xs))
	if n == 0 {
		return 0, false
	}
	rank := quantile.NearestRank(q, n)
	if n-rank < minBeyond {
		return 0, false
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return xs[rank-1], true
}

// median returns the middle value of xs (the lower one of an even count),
// sorting xs in place; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[(len(xs)-1)/2]
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest is FNV-1a over the exact bits of every modelled value, in the
// order the workload emits them.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	_, _ = d.h.Write(d.buf[:]) // hash writes cannot fail
}

func (d *digest) f(x float64) { d.u(math.Float64bits(x)) }

func (d *digest) i(x int64) { d.u(uint64(x)) }

func (d *digest) s(x string) {
	d.i(int64(len(x)))
	_, _ = d.h.Write([]byte(x))
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
