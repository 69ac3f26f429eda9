package base2

import (
	"fmt"
	"math"
)

// FixedFormat is a signed two's-complement fixed-point format with IntBits
// integer bits (including the sign bit) and FracBits fractional bits. The
// representable range is [-2^(IntBits-1), 2^(IntBits-1) - 2^-FracBits] with
// resolution 2^-FracBits. Out-of-range values saturate, which is the usual
// HLS ap_fixed behaviour.
type FixedFormat struct {
	IntBits  int
	FracBits int
}

// NewFixedFormat validates and returns a fixed-point format.
func NewFixedFormat(intBits, fracBits int) (FixedFormat, error) {
	f := FixedFormat{IntBits: intBits, FracBits: fracBits}
	if intBits < 1 || fracBits < 0 || intBits+fracBits > 63 {
		return f, fmt.Errorf("base2: invalid fixed format <%d,%d>", intBits, fracBits)
	}
	return f, nil
}

// Name implements Format.
func (f FixedFormat) Name() string { return fmt.Sprintf("fixed<%d,%d>", f.IntBits, f.FracBits) }

// Bits implements Format.
func (f FixedFormat) Bits() int { return f.IntBits + f.FracBits }

// scale returns 2^FracBits.
func (f FixedFormat) scale() float64 { return math.Ldexp(1, f.FracBits) }

// maxRaw returns the largest raw value.
func (f FixedFormat) maxRaw() int64 { return (int64(1) << (f.Bits() - 1)) - 1 }

// minRaw returns the smallest raw value.
func (f FixedFormat) minRaw() int64 { return -(int64(1) << (f.Bits() - 1)) }

// Quantize implements Format: round-to-nearest-even with saturation.
func (f FixedFormat) Quantize(x float64) float64 {
	return f.FromRaw(f.ToRaw(x))
}

// ToRaw converts a float to the raw integer representation.
func (f FixedFormat) ToRaw(x float64) int64 {
	if math.IsNaN(x) {
		return 0
	}
	scaled := x * f.scale()
	r := math.RoundToEven(scaled)
	if r > float64(f.maxRaw()) {
		return f.maxRaw()
	}
	if r < float64(f.minRaw()) {
		return f.minRaw()
	}
	return int64(r)
}

// FromRaw converts a raw integer back to float64.
func (f FixedFormat) FromRaw(raw int64) float64 { return float64(raw) / f.scale() }
