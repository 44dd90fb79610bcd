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

// merge sets z = 2^shift·a + b, reduced into the plaintext space. It is
// the one addition body: Add is the shift-0 case into a fresh value,
// MergeVec runs it into slab windows sized by mergeWords.
func (s *Scheme) merge(z, a *big.Int, shift uint, b *big.Int) {
	if shift == 0 {
		z.Add(a, b)
	} else {
		z.Lsh(a, shift)
		z.Add(z, b)
	}
	s.reduce(z)
}

// mergeWords is the window merge needs to run in place: the longer of
// the shifted a and b, plus the carry word big.Int.Add claims before it
// knows whether the addition carries (which also covers the word Lsh
// claims for the bits shifted out of a's top word). One more when a
// plaintext modulus is set: the reduction scales its dividend in place.
func (s *Scheme) mergeWords(a *big.Int, shift uint, b *big.Int) int {
	const W = bits.UintSize
	w := max((a.BitLen()+int(shift)+W-1)/W, len(b.Bits())) + 1
	if s.space != nil {
		w++
	}
	return w
}

// Add implements homenc.Scheme.
func (s *Scheme) Add(a, b homenc.Ciphertext) homenc.Ciphertext {
	z := new(big.Int)
	s.merge(z, a.V, 0, b.V)
	return homenc.Ciphertext{V: z}
}

// MergeVec implements homenc.Scheme: every result lives in one slab.
func (s *Scheme) MergeVec(a []homenc.Ciphertext, shift uint, b []homenc.Ciphertext) []homenc.Ciphertext {
	if len(a) != len(b) {
		panic("plain: MergeVec length mismatch")
	}
	words := 0
	for i := range a {
		words += s.mergeWords(a[i].V, shift, b[i].V)
	}
	slab := homenc.NewSlab(len(a), words)
	out := make([]homenc.Ciphertext, len(a))
	for i := range a {
		z := slab.Carve(i, s.mergeWords(a[i].V, shift, b[i].V))
		s.merge(z, a[i].V, shift, b[i].V)
		out[i].V = z
	}
	return out
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
