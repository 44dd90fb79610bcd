// Package plain implements homenc.Scheme with no encryption at all: the
// "ciphertext" is the plaintext integer. It preserves the structure of
// the real scheme — plaintext-space reduction, threshold bookkeeping,
// partial-decryption interface, wire sizes — so the gossip protocols can
// run unchanged at populations where real cryptography would be the
// bottleneck rather than the object of study. This mirrors the paper's
// own methodology (Section 6.1): latency experiments simulate the
// epidemic algorithms; crypto costs are measured separately on one node.
//
// SECURITY: this scheme offers none. It exists for simulation only.
package plain

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"chiaroscuro/internal/homenc"
)

// Scheme is the no-crypto stand-in. The zero value is not usable; use New.
type Scheme struct {
	space     *big.Int // optional plaintext modulus (nil = unbounded)
	ctBytes   int      // reported wire size per ciphertext
	nShares   int
	threshold int
}

// New returns a plain scheme. space may be nil for unbounded plaintexts;
// ctBytes is the pretend wire size of a ciphertext (e.g. 2048/8 to mimic
// a 1024-bit-key Damgård–Jurik ciphertext at s=1); nShares/threshold
// configure the pretend key-share population.
func New(space *big.Int, ctBytes, nShares, threshold int) (*Scheme, error) {
	if threshold < 1 || nShares < threshold {
		return nil, fmt.Errorf("plain: invalid threshold %d of %d", threshold, nShares)
	}
	if ctBytes <= 0 {
		ctBytes = 256
	}
	return &Scheme{space: space, ctBytes: ctBytes, nShares: nShares, threshold: threshold}, nil
}

// Name implements homenc.Scheme.
func (s *Scheme) Name() string { return "plain" }

// PlaintextSpace implements homenc.Scheme.
func (s *Scheme) PlaintextSpace() *big.Int { return s.space }

func (s *Scheme) reduce(v *big.Int) *big.Int {
	if s.space == nil {
		return v
	}
	return v.Mod(v, s.space)
}

// Encrypt implements homenc.Scheme.
func (s *Scheme) Encrypt(m *big.Int) homenc.Ciphertext {
	return homenc.Ciphertext{V: s.reduce(new(big.Int).Set(m))}
}

// merge sets z = 2^shift·a + b, reduced into the plaintext space; quo
// takes the quotient of the reduction. It is the one addition body: Add
// is the shift-0 case into a fresh value, MergeVec runs it into one
// scratch value per call.
func (s *Scheme) merge(z, quo, a *big.Int, shift uint, b *big.Int) {
	if shift == 0 {
		z.Add(a, b)
	} else {
		z.Lsh(a, shift)
		z.Add(z, b)
	}
	if s.space != nil {
		quo.QuoRem(z, s.space, z)
		if z.Sign() < 0 { // Euclidean, as Mod: a peer may send a negative value
			z.Add(z, s.space)
		}
	}
}

// mergeBytes bounds the magnitude of 2^shift·a + b in bytes, from the
// operands' magnitudes in bits: the sum is below twice the larger of its
// terms, so one bit more than the longer of them covers it, and a
// reduced value is below the plaintext modulus.
func (s *Scheme) mergeBytes(a int, shift uint, b int) int {
	n := (max(a+int(shift), b) + 1 + 7) / 8
	if s.space != nil {
		n = min(n, (s.space.BitLen()+7)/8)
	}
	return n
}

// mergeWords is the scratch merge needs to compute 2^shift·a + b in
// place, from the operands' magnitudes in bits: the longer of the
// shifted a and b, plus the carry word big.Int.Add claims before it
// knows whether the addition carries (which also covers the word Lsh
// claims for the bits shifted out of a's top word). One more when a
// plaintext modulus is set: the reduction scales its dividend in place.
func (s *Scheme) mergeWords(a int, shift uint, b int) int {
	w := max(words(a+int(shift)), words(b)) + 1
	if s.space != nil {
		w++
	}
	return w
}

// words is how many big.Words hold n bits.
func words(n int) int { return (n + bits.UintSize - 1) / bits.UintSize }

// Add implements homenc.Scheme.
func (s *Scheme) Add(a, b homenc.Ciphertext) homenc.Ciphertext {
	var quo big.Int
	z := new(big.Int)
	s.merge(z, &quo, a.V, 0, b.V)
	return homenc.Ciphertext{V: z}
}

// MergeVec implements homenc.Scheme. An element costs a shift and an
// addition, so the kernel runs serial whatever workers allows. A first
// pass over the operands' lengths sizes the result image and one scratch
// slab — the widest element of a, of b, and of the working value — so
// the call allocates the image, the vector and the scratch, whatever
// the operands.
func (s *Scheme) MergeVec(a homenc.Operand, shift uint, b homenc.Operand, _ int) *homenc.Vector {
	n := a.Len()
	if n != b.Len() {
		panic("plain: MergeVec length mismatch")
	}
	size, wa, wb, wz := 0, 0, 0, 0
	ra, rb := a.Reader(), b.Reader()
	for i := 0; i < n; i++ {
		ba, bb := ra.NextBits(), rb.NextBits()
		size += s.mergeBytes(ba, shift, bb)
		wa, wb, wz = max(wa, words(ba)), max(wb, words(bb)), max(wz, s.mergeWords(ba, shift, bb))
	}
	out := homenc.NewVectorWriter(n, size)
	scratch := make([]big.Word, wa+wb+wz)
	var x, y, z, quo big.Int
	x.SetBits(scratch[:0:wa])
	y.SetBits(scratch[wa : wa : wa+wb])
	z.SetBits(scratch[wa+wb : wa+wb])
	ra, rb = a.Reader(), b.Reader()
	for i := 0; i < n; i++ {
		s.merge(&z, &quo, ra.Next(&x), shift, rb.Next(&y))
		out.Append(&z)
	}
	return out.Vector()
}

// ScalarMul implements homenc.Scheme.
func (s *Scheme) ScalarMul(a homenc.Ciphertext, k *big.Int) homenc.Ciphertext {
	if k.Sign() < 0 {
		panic("plain: negative scalar")
	}
	return homenc.Ciphertext{V: s.reduce(new(big.Int).Mul(a.V, k))}
}

// CiphertextBytes implements homenc.Scheme.
func (s *Scheme) CiphertextBytes() int { return s.ctBytes }

// NumShares implements homenc.Scheme.
func (s *Scheme) NumShares() int { return s.nShares }

// Threshold implements homenc.Scheme.
func (s *Scheme) Threshold() int { return s.threshold }

// PartialDecrypt implements homenc.Scheme. The partial decryption of the
// plain scheme carries no information (the plaintext is already public
// within the simulation); only the index bookkeeping matters.
func (s *Scheme) PartialDecrypt(index int, c homenc.Ciphertext) (homenc.PartialDecryption, error) {
	if index < 1 || index > s.nShares {
		return homenc.PartialDecryption{}, fmt.Errorf("plain: key-share index %d out of range", index)
	}
	return homenc.PartialDecryption{Index: index, V: new(big.Int).Set(c.V)}, nil
}

// Combine implements homenc.Scheme: it checks that at least Threshold
// distinct shares contributed (the protocol invariant of Section 4.2.3)
// and returns the plaintext.
func (s *Scheme) Combine(c homenc.Ciphertext, parts []homenc.PartialDecryption) (*big.Int, error) {
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		if p.Index < 1 || p.Index > s.nShares {
			return nil, fmt.Errorf("plain: key-share index %d out of range", p.Index)
		}
		if seen[p.Index] {
			return nil, fmt.Errorf("plain: duplicate key-share %d", p.Index)
		}
		seen[p.Index] = true
	}
	if len(seen) < s.threshold {
		return nil, errors.New("plain: not enough distinct key-shares")
	}
	return new(big.Int).Set(c.V), nil
}

var _ homenc.Scheme = (*Scheme)(nil)
