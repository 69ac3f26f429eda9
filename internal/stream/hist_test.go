package stream

import (
	"math"
	"math/rand"
	"testing"
)

// frexpBucket is bucketOf as a Frexp of the quotient: the reference the
// bit-reading form must match wherever the quotient is finite.
func frexpBucket(lat float64) int {
	if lat < histMin {
		return 0
	}
	frac, exp := math.Frexp(lat / histMin) // frac in [0.5, 1), exp >= 1
	oct := exp - 1
	if oct >= histOctaves {
		return histOctaves*histSub - 1
	}
	sub := int((frac - 0.5) * 2 * histSub) // linear within the octave
	if sub >= histSub {
		sub = histSub - 1
	}
	return oct*histSub + sub
}

// TestBucketOfMatchesFrexp checks bucketOf against frexpBucket at every
// bucket's lower edge and one ulp either side of it, at the floor, past
// the top octave where both clamp, and on random draws across the range.
func TestBucketOfMatchesFrexp(t *testing.T) {
	check := func(lat float64) {
		t.Helper()
		if got, want := bucketOf(lat), frexpBucket(lat); got != want {
			t.Fatalf("bucketOf(%g) = %d, the Frexp form gives %d", lat, got, want)
		}
	}
	for oct := range histOctaves + 2 { // two octaves past the clamp
		for sub := range histSub {
			edge := histMin * math.Ldexp(1+float64(sub)/histSub, oct)
			check(edge)
			check(math.Nextafter(edge, 0))
			check(math.Nextafter(edge, math.Inf(1)))
		}
	}
	for _, lat := range []float64{
		0, -1, math.SmallestNonzeroFloat64,
		histMin, math.Nextafter(histMin, 0), math.Nextafter(histMin, 1),
		histMin * math.Ldexp(1, histOctaves), 1e300,
	} {
		check(lat)
	}
	rng := rand.New(rand.NewSource(1))
	for range 100000 {
		// Log-uniform from far below the floor to past the clamp.
		check(math.Exp2(rng.Float64()*100 - 30))
	}
	// Where the quotient overflows to +Inf or is NaN, the Frexp form
	// indexes out of range; the bit-reading form clamps.
	for _, lat := range []float64{math.MaxFloat64, math.Inf(1), math.NaN()} {
		if got := bucketOf(lat); got != histOctaves*histSub-1 {
			t.Errorf("bucketOf(%g) = %d, want the top bucket", lat, got)
		}
	}
}
