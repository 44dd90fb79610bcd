// Package homenc defines the additively-homomorphic threshold encryption
// abstraction Chiaroscuro is built on (Section 3.3.1 of the paper: any
// semantically secure, additively homomorphic scheme with non-interactive
// threshold decryption), plus the fixed-point encoding that maps the
// protocol's real-valued time-series into the scheme's integer plaintext
// space.
//
// Two implementations exist:
//
//   - homenc/damgardjurik: the real Damgård–Jurik scheme the paper names,
//     used for local-cost experiments and small-scale end-to-end runs;
//   - homenc/plain: a structure-preserving stand-in with no security,
//     used so protocol simulations can scale to 10⁵–10⁶ nodes (the paper
//     does the same: its large-scale latency experiments simulate the
//     epidemic algorithms without paying for crypto at every node).
//
// State at rest is an image. Every ciphertext vector the protocol keeps
// — an EESum state above all — exists as its canonical wire image
// (Vector) and nothing else: the bytes its next send and its next
// journal record want. A producer appends each ciphertext straight into
// the image as the scheme returns it (VectorWriter): the encryption of a
// contribution, a merge, a public correction, a key-share application.
// The merge kernels (Scheme.MergeVec) read their operands in place, from
// an owned image or a scanned frame (Operand), and append each result
// straight into an image the caller supplies, so a participant merges
// into a buffer of its own that it reuses from one exchange to the
// next; an encoded element is decoded into scratch that lives for one
// kernel call. The decryption reads its vectors the same way, element
// by element. big.Int values are transient: they exist for the crypto
// in flight. Where a caller does want a vector's values (a test, or an
// adapter for callers holding values), they are decoded into one slab —
// one []big.Int over one []big.Word — whose values live and die
// together. Keeping one ciphertext of such a vector reachable keeps the
// whole slab; code that wants to keep a single value for long should
// copy it.
package homenc

import (
	"math"
	"math/big"
)

// Ciphertext is an opaque encrypted (or, for the plain scheme, stand-in)
// integer. Ciphertexts are immutable: operations return new values.
type Ciphertext struct {
	V *big.Int
}

// PartialDecryption is the output of one key-share applied to a
// ciphertext (Section 4.2.3: partial decryptions combine once τ distinct
// shares contributed).
type PartialDecryption struct {
	Index int // 1-based key-share index
	V     *big.Int
}

// Scheme is the encryption interface the protocol layers use.
//
// Plaintexts are integers in [0, PlaintextSpace()); negative values are
// represented by their residue (two's-complement style) and recovered
// with Centered. Add is the homomorphic +h of the paper; ScalarMul is
// repeated +h (used by Algorithm 2 to rescale by powers of two).
type Scheme interface {
	// Name identifies the scheme ("damgard-jurik", "plain").
	Name() string
	// PlaintextSpace returns the plaintext modulus (n^s for Damgård–
	// Jurik), or nil when plaintexts are unbounded (plain scheme).
	PlaintextSpace() *big.Int
	// Encrypt encrypts m (which may be negative; it is reduced into the
	// plaintext space).
	Encrypt(m *big.Int) Ciphertext
	// Add returns a +h b.
	Add(a, b Ciphertext) Ciphertext
	// AddPublic returns a +h m for a plaintext m every participant
	// holds (which may be negative; it is reduced into the plaintext
	// space), drawing no randomness: the result keeps a's randomizer.
	// Anyone holding a and m can compute it, so it hides nothing a does
	// not; a value that must stay secret goes through Encrypt and Add.
	AddPublic(a Ciphertext, m *big.Int) Ciphertext
	// ScalarMul returns k ·h a for a non-negative integer k.
	ScalarMul(a Ciphertext, k *big.Int) Ciphertext
	// MergeVec writes the vector 2^shift ·h a[i] +h b[i] — the whole
	// update rule of Algorithm 2 (rescale the staler side, add) in one
	// pass — into dst, as its canonical image (Vector.Rewrite: dst's
	// buffer is reused when it is large enough). It reads each operand
	// element by element, decoding each element into scratch it reuses
	// across the call. The
	// operands are only read; they must have equal length, and dst must
	// be neither of them. workers bounds how many goroutines the kernel
	// may spread the vector over: a kernel whose elements cost an
	// exponentiation fans out, chunks filling disjoint regions of the
	// one image; one whose elements cost an addition runs serial, where
	// the fan-out costs more than it saves.
	MergeVec(dst *Vector, a Operand, shift uint, b Operand, workers int)
	// CiphertextBytes is the wire size of one ciphertext, for the
	// bandwidth accounting of Figure 5(b).
	CiphertextBytes() int
	// NumShares and Threshold describe the key-share configuration
	// (nκ and τ of Table 1).
	NumShares() int
	Threshold() int
	// PartialDecrypt applies key-share index (1-based) to c.
	PartialDecrypt(index int, c Ciphertext) (PartialDecryption, error)
	// Combine merges at least Threshold distinct partial decryptions of
	// c into the plaintext (reduced into [0, PlaintextSpace())).
	Combine(c Ciphertext, parts []PartialDecryption) (*big.Int, error)
}

// HeadroomEpochs returns the largest e with bound·2^e < half(space) —
// how many doubling epochs an EESum run can accumulate before a value
// of magnitude bound stops being centered-representable. The inequality
// is strict: for an even space the epoch that scales bound to exactly
// space/2 is unsafe (-space/2 has no centered representative; the
// residue decodes as +space/2), so it is not counted. For an odd space
// ±half are both representable and the strict rule gives up that one
// boundary epoch — deliberately, keeping a single conservative rule
// (the boundary is a measure-zero case for real Damgård–Jurik spaces).
// A nil space or non-positive bound means no constraint (the maximum
// int is returned).
//
// This is the single source of truth for the protocol's plaintext
// headroom math; core's pre-flight check calls it directly.
func HeadroomEpochs(space, bound *big.Int) int {
	maxInt := int(^uint(0) >> 1)
	if space == nil || bound == nil || bound.Sign() <= 0 {
		return maxInt
	}
	half := new(big.Int).Rsh(space, 1)
	q, r := new(big.Int).QuoRem(half, bound, new(big.Int))
	e := q.BitLen() - 1 // 2^e <= q, so bound·2^e <= half
	if e >= 0 && r.Sign() == 0 && q.TrailingZeroBits() == uint(e) {
		// q is an exact power of two and divides half exactly:
		// bound·2^e == half violates the strict bound.
		e--
	}
	return e
}

// Centered maps a residue v in [0, space) to its centered representative
// in (-space/2, space/2], recovering negative plaintexts. A nil space
// returns v unchanged.
func Centered(v, space *big.Int) *big.Int {
	if space == nil {
		return v
	}
	half := new(big.Int).Rsh(space, 1)
	if v.Cmp(half) > 0 {
		return new(big.Int).Sub(v, space)
	}
	return v
}

// Codec converts between the protocol's float64 measures and integer
// plaintexts using fixed-point encoding with FracBits fractional bits.
type Codec struct {
	FracBits uint
}

// DefaultFracBits gives ~1e-9 absolute encoding precision, far below
// any differentially-private noise magnitude.
const DefaultFracBits = 30

// NewCodec returns a codec with the given number of fractional bits
// (DefaultFracBits if fracBits is 0).
func NewCodec(fracBits uint) Codec {
	if fracBits == 0 {
		fracBits = DefaultFracBits
	}
	return Codec{FracBits: fracBits}
}

// Encode converts x to its fixed-point integer representation: x·2^FracBits
// rounded to the nearest integer, ties away from zero. The result is
// exact for every finite x and every FracBits: x is an integer mantissa
// of at most 53 bits times a power of two, so scaling shifts that
// mantissa left, or right with the first bit shifted out rounding the
// magnitude up. It panics on NaN/Inf: those are programming errors
// upstream, not data.
func (c Codec) Encode(x float64) *big.Int {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic("homenc: cannot encode NaN/Inf")
	}
	frac, exp := math.Frexp(x) // x = frac·2^exp with 0.5 ≤ |frac| < 1, or 0
	mant := int64(frac * (1 << 53))
	mag := uint64(mant)
	if mant < 0 {
		mag = uint64(-mant)
	}
	z := new(big.Int)
	if shift := exp - 53 + int(c.FracBits); shift >= 0 {
		z.SetUint64(mag).Lsh(z, uint(shift))
	} else {
		// A shift of 54 or more leaves a magnitude below one half: 0.
		r := uint(-shift)
		z.SetUint64(mag>>r + mag>>(r-1)&1)
	}
	if mant < 0 {
		z.Neg(z)
	}
	return z
}

// Decode converts a (possibly negative, already centered) fixed-point
// integer back to float64, dividing by an extra integer divisor (the
// epidemic weight, so the 2^e scaling of Algorithm 2 cancels). A nil or
// zero divisor means divide by one. It is DecodeVec of one value.
func (c Codec) Decode(v *big.Int, divisor *big.Int) float64 {
	var out [1]float64
	c.DecodeVec(out[:], []*big.Int{v}, divisor)
	return out[0]
}

// DecodeVec decodes vs into dst (at least len(vs) long), every value
// over the one divisor, as Decode does each: v / (2^FracBits · divisor)
// rounded to a 256-bit binary float, then rounded once more to float64,
// always to nearest, ties to even — bit for bit what the big.Float
// computation codec_test.go keeps as the reference returns. That one
// rounds |v| to 256 bits, and |divisor| to 256 and then to 53 bits (the
// precision of the 2^FracBits it is multiplied into); none of the three
// changes a value that is not wider. DecodeVec does the same in integer
// arithmetic on four big.Ints reused across the vector, so a value
// allocates nothing once they have grown: the two operands rounded, a
// division leaving a 257- or 258-bit quotient, that quotient rounded to
// 256 bits with the remainder as its sticky bit, and the result rounded
// to float64's 53 bits, fewer below 2^-1022.
//
// In the protocol's regime — |v| below 2^255, the divisor below 2^53
// and 2^FracBits·divisor far below 2^200 — no operand is rounded and
// the 256-bit step never changes the result, so DecodeVec is the one
// correct rounding of the exact quotient q. A float64 tie t has at most
// 54 significant bits; when q ≠ t, v − t·2^FracBits·divisor is a
// nonzero multiple of min(1, ulp(t)), so |q − t| is at least
// min(1, ulp(t)) / (2^FracBits·divisor), which exceeds 2^-254·|q|: more
// than the 2^-256·|q| the 256-bit rounding may move q. That rounding
// neither reaches a tie nor crosses one, and keeps an exact tie exact,
// so rounding twice equals rounding once.
func (c Codec) DecodeVec(dst []float64, vs []*big.Int, divisor *big.Int) {
	var den, num, quo, rem big.Int
	den.SetInt64(1)
	denExp, negDen := int(c.FracBits), false
	if divisor != nil && divisor.Sign() != 0 {
		den.Abs(divisor)
		denExp += roundBits(&den, quoBits, false)
		denExp += roundBits(&den, 53, false)
		negDen = divisor.Sign() < 0
	}
	for i, v := range vs {
		dst[i] = decodeQuo(v, &den, denExp, negDen, &num, &quo, &rem)
	}
}

// quoBits is the precision of DecodeVec's intermediate quotient.
const quoBits = 256

// decodeQuo returns v / (den·2^denExp), negated when negDen, as
// DecodeVec rounds it; num, quo and rem are its scratch.
func decodeQuo(v, den *big.Int, denExp int, negDen bool, num, quo, rem *big.Int) float64 {
	neg := (v.Sign() < 0) != negDen
	if v.Sign() == 0 {
		if neg {
			return math.Copysign(0, -1)
		}
		return 0
	}
	num.Abs(v)
	exp := roundBits(num, quoBits, false) - denExp
	shift := quoBits + 1 + den.BitLen() - num.BitLen() // ≥ 2: the quotient has 257 or 258 bits
	num.Lsh(num, uint(shift))
	exp -= shift
	quo.QuoRem(num, den, rem)
	exp += roundBits(quo, quoBits, rem.Sign() != 0)
	// float64 keeps 53 bits down to 2^-1022, one fewer for each binade
	// below: the smallest subnormal is 2^-1074, and half of it ties to 0.
	prec := 53
	if lead := exp + quo.BitLen() - 1; lead < -1022 {
		prec = lead + 1075
	}
	var x float64
	if prec >= 0 {
		exp += roundBits(quo, prec, false)
		x = math.Ldexp(float64(quo.Uint64()), exp) // exact, or ±Inf past MaxFloat64
	}
	if neg {
		x = -x
	}
	return x
}

// roundBits rounds m ≥ 0 to at most prec significant bits, to nearest
// with ties to even, and returns how many low bits it shifted out: the
// value is then m·2^dropped. sticky says that nonzero bits follow m's
// lowest one, so that a dropped exact half is not a tie. A carry may
// leave m at 2^prec. With prec 0 only a value above one half of the
// first bit out rounds up, to 1.
func roundBits(m *big.Int, prec int, sticky bool) int {
	drop := m.BitLen() - prec
	if drop <= 0 {
		return 0
	}
	half := m.Bit(drop-1) == 1
	rest := sticky || m.TrailingZeroBits() < uint(drop-1)
	m.Rsh(m, uint(drop))
	if half && (rest || m.Bit(0) == 1) {
		m.Add(m, bigOne)
	}
	return drop
}

// bigOne is 1, only ever read.
var bigOne = big.NewInt(1)
