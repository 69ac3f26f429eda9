package base2

import (
	"fmt"
	"math"
)

// MiniFloat is a reduced-precision IEEE-754-style binary float with ExpBits
// exponent bits and FracBits fraction bits (plus a sign bit). It models the
// fp16/bf16 datapaths the base2 dialect lowers to, with gradual underflow
// (subnormals), signed infinities, and NaN.
type MiniFloat struct {
	Label    string
	ExpBits  int
	FracBits int
}

// FP16 is IEEE binary16.
func FP16() MiniFloat { return MiniFloat{Label: "f16", ExpBits: 5, FracBits: 10} }

// BF16 is bfloat16 (truncated binary32).
func BF16() MiniFloat { return MiniFloat{Label: "bf16", ExpBits: 8, FracBits: 7} }

// Name implements Format.
func (f MiniFloat) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return fmt.Sprintf("float<e%d,m%d>", f.ExpBits, f.FracBits)
}

// Bits implements Format.
func (f MiniFloat) Bits() int { return 1 + f.ExpBits + f.FracBits }

// Quantize implements Format.
func (f MiniFloat) Quantize(x float64) float64 { return f.Decode(f.Encode(x)) }

func (f MiniFloat) bias() int        { return (1 << (f.ExpBits - 1)) - 1 }
func (f MiniFloat) maxExpField() int { return (1 << f.ExpBits) - 1 }

// Encode rounds x to the nearest representable value (ties to even) and
// returns the bit pattern.
func (f MiniFloat) Encode(x float64) uint64 {
	signBit := uint64(0)
	if math.Signbit(x) {
		signBit = uint64(1) << (f.ExpBits + f.FracBits)
	}
	if math.IsNaN(x) {
		// Quiet NaN: exponent all ones, MSB of fraction set.
		return signBit | uint64(f.maxExpField())<<f.FracBits | uint64(1)<<(f.FracBits-1)
	}
	if math.IsInf(x, 0) {
		return signBit | uint64(f.maxExpField())<<f.FracBits
	}
	ax := math.Abs(x)
	if ax == 0 {
		return signBit
	}

	m, e2 := math.Frexp(ax) // ax = m * 2^e2, m in [0.5,1)
	scale := e2 - 1
	mant := m * 2 // [1,2)

	minNormExp := 1 - f.bias()
	maxNormExp := f.maxExpField() - 1 - f.bias()

	if scale < minNormExp {
		// Subnormal range: value = fracField * 2^(minNormExp - FracBits).
		q := math.RoundToEven(ax * math.Ldexp(1, f.FracBits-minNormExp))
		if q == 0 {
			return signBit // underflow to zero
		}
		if q >= math.Ldexp(1, f.FracBits) {
			// Rounded up into the smallest normal.
			return signBit | uint64(1)<<f.FracBits
		}
		return signBit | uint64(q)
	}
	if scale > maxNormExp {
		return signBit | uint64(f.maxExpField())<<f.FracBits // overflow to Inf
	}

	frac := math.RoundToEven((mant - 1) * math.Ldexp(1, f.FracBits))
	expField := scale + f.bias()
	if frac >= math.Ldexp(1, f.FracBits) {
		frac = 0
		expField++
		if expField >= f.maxExpField() {
			return signBit | uint64(f.maxExpField())<<f.FracBits // overflow to Inf
		}
	}
	return signBit | uint64(expField)<<f.FracBits | uint64(frac)
}

// Decode returns the float64 value of a bit pattern.
func (f MiniFloat) Decode(bits uint64) float64 {
	width := uint(f.Bits())
	bits &= (uint64(1) << width) - 1
	sign := bits>>(width-1) == 1
	expField := int(bits>>f.FracBits) & f.maxExpField()
	frac := bits & ((uint64(1) << f.FracBits) - 1)

	var v float64
	switch {
	case expField == f.maxExpField():
		if frac != 0 {
			return math.NaN()
		}
		v = math.Inf(1)
	case expField == 0:
		v = float64(frac) * math.Ldexp(1, 1-f.bias()-f.FracBits)
	default:
		mant := 1 + float64(frac)*math.Ldexp(1, -f.FracBits)
		v = mant * math.Ldexp(1, expField-f.bias())
	}
	if sign {
		return -v
	}
	return v
}
