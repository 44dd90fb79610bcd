package homenc

import (
	"math"
	"math/big"
	"testing"
)

// encodeReference is Encode as a big.Float computation: x·2^f exactly in
// 128 bits (x has 53 significant bits, and scaling by a power of two is
// exact), truncated toward zero, then moved one away from zero when the
// dropped fraction reaches one half.
func encodeReference(x float64, fracBits uint) *big.Int {
	scaled := new(big.Float).SetPrec(128).SetFloat64(x)
	scaled.Mul(scaled, new(big.Float).SetPrec(128).SetMantExp(big.NewFloat(1), int(fracBits)))
	i, _ := scaled.Int(nil)
	frac := new(big.Float).Sub(scaled, new(big.Float).SetInt(i))
	frac.Abs(frac)
	if frac.Cmp(big.NewFloat(0.5)) >= 0 {
		if scaled.Sign() >= 0 {
			i.Add(i, big.NewInt(1))
		} else {
			i.Sub(i, big.NewInt(1))
		}
	}
	return i
}

// decodeReference is Decode as it was written per value: every call
// builds its own 256-bit numerator, denominator and quotient.
func decodeReference(v *big.Int, divisor *big.Int, fracBits uint) float64 {
	num := new(big.Float).SetPrec(256).SetInt(v)
	den := new(big.Float).SetPrec(256).SetMantExp(big.NewFloat(1), int(fracBits))
	if divisor != nil && divisor.Sign() != 0 {
		den.Mul(den, new(big.Float).SetPrec(256).SetInt(divisor))
	}
	out, _ := new(big.Float).Quo(num, den).Float64()
	return out
}

// encodeCases are the inputs where an integer encoder can go wrong: the
// signed zeros, subnormals, exact ties at 2^-f, magnitudes of x·2^f
// around every word and mantissa boundary, and the largest float.
func encodeCases(fracBits uint) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 * 0.75, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.3, -0.4, 1.5, -2.5, 1e-9, 123456.789,
	}
	unit := math.Ldexp(1, -int(fracBits)) // one step of the encoding
	for _, k := range []float64{0.5, 1.5, 2.5, 0.25, 0.75, 1} {
		xs = append(xs, k*unit, -k*unit, math.Nextafter(k*unit, 0), -math.Nextafter(k*unit, 0),
			math.Nextafter(k*unit, 1), -math.Nextafter(k*unit, 1))
	}
	for _, e := range []int{52, 53, 62, 63, 64} {
		at := math.Ldexp(1, e-int(fracBits)) // x·2^f = 2^e
		for _, x := range []float64{at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)), at + 0.5*unit, at - 0.5*unit} {
			xs = append(xs, x, -x)
		}
	}
	return xs
}

// TestCodecEncodeMatchesReference pins the integer Encode to the
// big.Float reference bit for bit.
func TestCodecEncodeMatchesReference(t *testing.T) {
	for _, f := range []uint{0, 1, 24, 30, 62} {
		c := Codec{FracBits: f}
		for _, x := range encodeCases(f) {
			if got, want := c.Encode(x), encodeReference(x, f); got.Cmp(want) != 0 {
				t.Errorf("FracBits %d: Encode(%v) = %v, reference %v", f, x, got, want)
			}
		}
	}
}

func FuzzCodecEncode(f *testing.F) {
	for _, fb := range []uint8{0, 1, 24, 30, 62} {
		for _, x := range encodeCases(uint(fb)) {
			f.Add(x, fb)
		}
	}
	f.Fuzz(func(t *testing.T, x float64, fb uint8) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		c := Codec{FracBits: uint(fb)}
		if got, want := c.Encode(x), encodeReference(x, uint(fb)); got.Cmp(want) != 0 {
			t.Fatalf("FracBits %d: Encode(%v) = %v, reference %v", fb, x, got, want)
		}
	})
}

// TestCodecDecodeVecMatchesReference pins the vector decode to the
// per-value reference, including numerators and divisors wider than the
// 256 bits the quotient is computed in, where that rounding shows.
func TestCodecDecodeVecMatchesReference(t *testing.T) {
	pow := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	sum := func(xs ...*big.Int) *big.Int {
		z := new(big.Int)
		for _, x := range xs {
			z.Add(z, x)
		}
		return z
	}
	// 2^300 + 2^247 is a tie halfway between two float64s. A bit below
	// the 256 bits kept breaks the tie only for an exact computation; a
	// bit inside them breaks it for the 256-bit one as well.
	tie := sum(pow(300), pow(247))
	below, inside := sum(tie, pow(10)), sum(tie, pow(70))
	wideDiv := new(big.Int).Lsh(big.NewInt(3), 280)
	wideDiv.Sub(wideDiv, big.NewInt(1))
	vs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(1 << 40), big.NewInt(-987654321),
		tie, below, inside, new(big.Int).Neg(inside), new(big.Int).Lsh(below, 700),
	}
	for _, div := range []*big.Int{nil, new(big.Int), big.NewInt(1), big.NewInt(3), big.NewInt(-7), wideDiv} {
		for _, f := range []uint{0, 1, 24, 30, 62} {
			c := Codec{FracBits: f}
			got := make([]float64, len(vs))
			c.DecodeVec(got, vs, div)
			for i, v := range vs {
				want := decodeReference(v, div, f)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("FracBits %d, divisor %v: DecodeVec[%d] = %v, reference %v", f, div, i, got[i], want)
				}
				if one := c.Decode(v, div); math.Float64bits(one) != math.Float64bits(want) {
					t.Errorf("FracBits %d, divisor %v: Decode(%v) = %v, reference %v", f, div, v, one, want)
				}
			}
		}
	}
}

// decodeCases are DecodeVec's edge rows, every value over every
// divisor: zero over a negative divisor (−0), float64 ties and
// near-ties, results in the subnormal range down to the half of the
// smallest subnormal that ties to zero, overflow to ±Inf, and divisors
// wider than the 53 bits the reference keeps of them or than the 256
// bits it computes the quotient in.
func decodeCases() (vs, divs []*big.Int) {
	pow := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	add := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }
	vs = []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(3), big.NewInt(-5),
		add(pow(53), 1), add(pow(53), 3), add(pow(54), 2), add(pow(54), -3), // ties at 53 bits, both ways
		pow(1100), new(big.Int).Neg(pow(1100)), // past MaxFloat64
		add(pow(255), -1), pow(300), add(pow(300), 1),
	}
	divs = []*big.Int{
		nil, big.NewInt(-7), pow(1070), pow(1074), pow(1075), pow(1076), new(big.Int).Neg(pow(1076)),
		add(pow(60), 1<<7), add(pow(60), 1<<7+1), // a tie, and not one, at the divisor's 53 bits
		add(pow(300), 1), add(pow(600), -1),
	}
	return vs, divs
}

// TestCodecDecodeVecEdges pins DecodeVec to the reference on the edge
// rows, bit for bit, at the FracBits the protocol uses and at none.
func TestCodecDecodeVecEdges(t *testing.T) {
	vs, divs := decodeCases()
	for _, div := range divs {
		for _, f := range []uint{0, 30} {
			got := make([]float64, len(vs))
			Codec{FracBits: f}.DecodeVec(got, vs, div)
			for i, v := range vs {
				if want := decodeReference(v, div, f); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("FracBits %d: DecodeVec(%v / %v) = %v (%#x), reference %v (%#x)",
						f, v, div, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}

func FuzzCodecDecodeVec(f *testing.F) {
	vs, divs := decodeCases()
	for i, v := range vs {
		d := divs[i%len(divs)]
		var db []byte
		if d != nil {
			db = d.Bytes()
		}
		f.Add(v.Bytes(), v.Sign() < 0, db, d != nil && d.Sign() < 0, uint8(30))
	}
	f.Fuzz(func(t *testing.T, vb []byte, vneg bool, db []byte, dneg bool, fb uint8) {
		if len(vb) > 200 || len(db) > 200 {
			return
		}
		v, d := new(big.Int).SetBytes(vb), new(big.Int).SetBytes(db)
		if vneg {
			v.Neg(v)
		}
		if dneg {
			d.Neg(d)
		}
		c := Codec{FracBits: uint(fb)}
		var got [1]float64
		c.DecodeVec(got[:], []*big.Int{v}, d)
		if want := decodeReference(v, d, uint(fb)); math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Fatalf("FracBits %d: DecodeVec(%v / %v) = %v, reference %v", fb, v, d, got[0], want)
		}
	})
}

// TestCodecDecodeVecAllocs pins that a decoded value costs no
// allocation: a vector of 64 values allocates what one value does, the
// growth of DecodeVec's four scratch integers, and no more.
func TestCodecDecodeVecAllocs(t *testing.T) {
	c := NewCodec(0)
	vs := make([]*big.Int, 64)
	for i := range vs {
		vs[i] = c.Encode(float64(i)*1234.5678 - 40000)
		vs[i].Lsh(vs[i], 40) // a sum's weight 2^40 on it
	}
	omega := new(big.Int).Lsh(big.NewInt(1), 40)
	dst := make([]float64, len(vs))
	one := testing.AllocsPerRun(100, func() { c.DecodeVec(dst[:1], vs[:1], omega) })
	all := testing.AllocsPerRun(100, func() { c.DecodeVec(dst, vs, omega) })
	if all > one || one > 4 {
		t.Errorf("DecodeVec: %v allocations for one value, %v for %d; want at most 4, whatever the length", one, all, len(vs))
	}
}

// TestCodecEncodeAllocs pins what one Encode costs: the result and its
// one word, and a second slab of words when the result is wider than
// one — nothing per conversion step.
func TestCodecEncodeAllocs(t *testing.T) {
	c := NewCodec(0)
	var sink *big.Int
	for _, tc := range []struct {
		x    float64
		want float64
	}{{123.456, 2}, {-0.75, 2}, {0, 1}, {1e30, 3}} {
		if got := testing.AllocsPerRun(100, func() { sink = c.Encode(tc.x) }); got > tc.want {
			t.Errorf("Encode(%v): %v allocations, want at most %v", tc.x, got, tc.want)
		}
	}
	_ = sink
}
