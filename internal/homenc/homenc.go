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
// State at rest is an image. A ciphertext vector the protocol keeps
// between exchanges — an EESum state above all — exists as its canonical
// wire image (Vector), the bytes its next send and its next journal
// record want. The merge kernels (Scheme.MergeVec) read their operands
// in place, from values, an owned image or a scanned frame (Operand),
// and append each result straight into the image they return; an
// encoded element is decoded into scratch that lives for one kernel
// call. big.Int values are transient: they exist for the crypto in
// flight, and when a vector's values are wanted (to decrypt it, say)
// they are decoded into one slab — one []big.Int over one []big.Word —
// whose values live and die together. Keeping one ciphertext of such a
// vector reachable keeps the whole slab; code that wants to keep a
// single value for long should copy it.
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
	// ScalarMul returns k ·h a for a non-negative integer k.
	ScalarMul(a Ciphertext, k *big.Int) Ciphertext
	// MergeVec returns the vector 2^shift ·h a[i] +h b[i] — the whole
	// update rule of Algorithm 2 (rescale the staler side, add) in one
	// pass. It reads each operand element by element in the form the
	// operand has, decoding an encoded element into scratch it reuses
	// across the call, and appends each result to the canonical image
	// of the vector it returns, which holds no values. The operands are
	// only read; they must have equal length. workers bounds how many
	// goroutines the kernel may spread the vector over: a kernel whose
	// elements cost an exponentiation fans out, chunks filling disjoint
	// regions of the one image; one whose elements cost an addition runs
	// serial, where the fan-out costs more than it saves.
	MergeVec(a Operand, shift uint, b Operand, workers int) *Vector
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

// Encode converts x to its fixed-point integer representation
// round(x · 2^FracBits). It panics on NaN/Inf: those are programming
// errors upstream, not data.
func (c Codec) Encode(x float64) *big.Int {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic("homenc: cannot encode NaN/Inf")
	}
	scaled := new(big.Float).SetPrec(128).SetFloat64(x)
	scaled.Mul(scaled, new(big.Float).SetPrec(128).SetMantExp(big.NewFloat(1), int(c.FracBits)))
	i, _ := scaled.Int(nil)
	// Round-to-nearest: big.Float.Int truncates toward zero, so adjust
	// when the fractional remainder reaches one half in magnitude.
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

// Decode converts a (possibly negative, already centered) fixed-point
// integer back to float64, dividing by an extra integer divisor (the
// epidemic weight, so the 2^e scaling of Algorithm 2 cancels). A nil or
// zero divisor means divide by one.
func (c Codec) Decode(v *big.Int, divisor *big.Int) float64 {
	num := new(big.Float).SetPrec(256).SetInt(v)
	den := new(big.Float).SetPrec(256).SetMantExp(big.NewFloat(1), int(c.FracBits))
	if divisor != nil && divisor.Sign() != 0 {
		den.Mul(den, new(big.Float).SetPrec(256).SetInt(divisor))
	}
	out, _ := new(big.Float).Quo(num, den).Float64()
	return out
}
