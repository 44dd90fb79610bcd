// Package damgardjurik implements the Damgård–Jurik generalization of
// the Paillier cryptosystem (PKC 2001), the concrete scheme the paper
// instantiates (Section 3.3.1): semantically secure, additively
// homomorphic, with non-interactive threshold decryption.
//
//   - Public key: an RSA modulus n = p·q (p, q safe primes) and the
//     degree s; plaintexts live in Z_{n^s}, ciphertexts in Z*_{n^(s+1)}.
//   - Encryption: E(m) = (1+n)^m · r^(n^s) mod n^(s+1).
//   - Homomorphic addition is ciphertext multiplication; scalar
//     multiplication is ciphertext exponentiation.
//   - The decryption exponent d (d ≡ 1 mod n^s, d ≡ 0 mod p'q') is
//     Shamir-shared over Z_{n^s·p'q'}; a partial decryption is
//     c_i = c^(2Δ·s_i) with Δ = ℓ!, and any τ distinct partials combine
//     through integer Lagrange coefficients, followed by the iterative
//     discrete-log algorithm on (1+n)-powers.
package damgardjurik

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/parallel"
	"chiaroscuro/internal/shamir"
)

var one = big.NewInt(1)

// PublicKey holds the public parameters and derived constants.
type PublicKey struct {
	N *big.Int // RSA modulus p·q
	S int      // plaintext space degree: messages mod N^S

	NS  *big.Int // N^S, the plaintext modulus
	NS1 *big.Int // N^(S+1), the ciphertext modulus
}

func newPublicKey(n *big.Int, s int) *PublicKey {
	ns := new(big.Int).Set(n)
	for i := 1; i < s; i++ {
		ns.Mul(ns, n)
	}
	ns1 := new(big.Int).Mul(ns, n)
	return &PublicKey{N: new(big.Int).Set(n), S: s, NS: ns, NS1: ns1}
}

// Scheme is a complete threshold Damgård–Jurik instance. For simulation
// convenience it holds every key-share; a deployed participant would
// hold only its own (the protocol layer only ever passes an index).
// Methods are safe for concurrent use when Random is crypto/rand.Reader.
type Scheme struct {
	*PublicKey

	nShares   int
	threshold int
	combInv   *big.Int   // (4Δ²)^(-1) mod N^S
	decExp    []*big.Int // decExp[i-1] = 2Δ·s_i, share i's partial-decryption exponent

	d *big.Int // the full decryption exponent (kept for direct Decrypt)

	Random io.Reader // entropy source for Encrypt (crypto/rand if nil)

	// Performance machinery (PERF.md): the CRT context exploits the
	// scheme's knowledge of p and q to run every exponentiation on the
	// two half-width prime powers; the pool precomputes the message-
	// independent encryption factors in the background; the remaining
	// fields cache the small-integer inverses that powOnePlusN, dLog and
	// Decrypt previously recomputed on every call.
	crt         *crtContext
	lastSet     atomic.Pointer[shareSet] // Combine's most recent share set
	pool        *randomizerPool
	randMu      sync.Mutex   // serializes draws from a custom Random reader
	smallInv    []*big.Int   // smallInv[i] = i^(-1) mod N^(S+1), 1 <= i <= S
	njPow       []*big.Int   // njPow[j] = N^j, 0 <= j <= S+1
	dlogFactInv [][]*big.Int // dlogFactInv[j][k] = (k!)^(-1) mod N^j
	halfInv     *big.Int     // 2^(-1) mod N^S
}

// GenerateKey creates a fresh threshold Damgård–Jurik scheme with an
// RSA modulus of the given bit length (so p and q are bits/2-bit safe
// primes — for bits >= 1024 this takes a while; tests use the
// precomputed safe primes exposed by KnownSafePrimes). random may be nil
// for crypto/rand.
func GenerateKey(random io.Reader, bits, s, nShares, threshold int) (*Scheme, error) {
	if random == nil {
		random = rand.Reader
	}
	if bits < 32 {
		return nil, errors.New("damgardjurik: modulus below 32 bits")
	}
	p, err := safePrime(random, bits/2)
	if err != nil {
		return nil, err
	}
	var q *big.Int
	for {
		q, err = safePrime(random, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if q.Cmp(p) != 0 {
			break
		}
	}
	return NewFromPrimes(random, p, q, s, nShares, threshold)
}

// NewFromPrimes builds a scheme from two distinct safe primes p = 2p'+1,
// q = 2q'+1. random draws the key material — the Shamir sharing
// polynomial and the randomizer subgroups' generators — and also feeds
// Encrypt as the scheme's Random (nil = crypto/rand for both).
func NewFromPrimes(random io.Reader, p, q *big.Int, s, nShares, threshold int) (*Scheme, error) {
	return newFromPrimes(random, random, p, q, s, nShares, threshold)
}

// newFromPrimes is NewFromPrimes with the key material drawn from keys
// and Encrypt's randomizers from random (nil = crypto/rand).
func newFromPrimes(keys, random io.Reader, p, q *big.Int, s, nShares, threshold int) (*Scheme, error) {
	if s < 1 {
		return nil, errors.New("damgardjurik: s must be >= 1")
	}
	if threshold < 1 || nShares < threshold {
		return nil, fmt.Errorf("damgardjurik: invalid threshold %d of %d", threshold, nShares)
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("damgardjurik: p and q must differ")
	}
	pp := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1) // p' = (p-1)/2
	qp := new(big.Int).Rsh(new(big.Int).Sub(q, one), 1) // q'
	for _, pr := range []*big.Int{p, q, pp, qp} {
		if !pr.ProbablyPrime(24) {
			return nil, errors.New("damgardjurik: p and q must be safe primes")
		}
	}
	n := new(big.Int).Mul(p, q)
	pk := newPublicKey(n, s)
	mbar := new(big.Int).Mul(pp, qp) // p'q'

	// d ≡ 1 mod N^S and d ≡ 0 mod p'q' by CRT:
	// d = m̄ · (m̄^{-1} mod N^S).
	mbarInv := new(big.Int).ModInverse(mbar, pk.NS)
	if mbarInv == nil {
		return nil, errors.New("damgardjurik: gcd(p'q', n^s) != 1")
	}
	d := new(big.Int).Mul(mbar, mbarInv)

	// Share d over Z_{N^S · m̄}.
	shareMod := new(big.Int).Mul(pk.NS, mbar)
	shares, err := shamir.Split(new(big.Int).Mod(d, shareMod), shareMod, threshold, nShares, keys)
	if err != nil {
		return nil, err
	}

	delta := shamir.Delta(nShares)
	// (4Δ²)^{-1} mod N^S — Δ = ℓ! is coprime to n for ℓ < p.
	fourD2 := new(big.Int).Mul(delta, delta)
	fourD2.Lsh(fourD2, 2)
	combInv := new(big.Int).ModInverse(fourD2, pk.NS)
	if combInv == nil {
		return nil, errors.New("damgardjurik: 4Δ² not invertible mod n^s (nShares too large?)")
	}

	decExp := make([]*big.Int, nShares)
	for i, sh := range shares {
		e := new(big.Int).Lsh(delta, 1)
		decExp[i] = e.Mul(e, sh.Y)
	}
	sch := &Scheme{
		PublicKey: pk,
		nShares:   nShares,
		threshold: threshold,
		combInv:   combInv,
		decExp:    decExp,
		d:         d,
		Random:    random,
		crt:       newCRTContext(keys, p, q, s, decExp),
	}
	sch.pool = newRandomizerPool(func() *big.Int { return sch.newRandomizer(nil) })
	sch.precomputeInverses()
	return sch, nil
}

// precomputeInverses caches every modular inverse whose operands depend
// only on the key: the small integers of the powOnePlusN binomial, the
// factorials of the dLog recursion, and the 2^(-1) of Decrypt. They are
// tiny (O(S²) entries for the degrees the protocol uses) but were
// recomputed per loop iteration per call on the previous hot path.
func (s *Scheme) precomputeInverses() {
	s.smallInv = make([]*big.Int, s.S+1)
	for i := 1; i <= s.S; i++ {
		s.smallInv[i] = new(big.Int).ModInverse(big.NewInt(int64(i)), s.NS1)
	}
	s.njPow = make([]*big.Int, s.S+2)
	s.njPow[0] = big.NewInt(1)
	for j := 1; j <= s.S+1; j++ {
		s.njPow[j] = new(big.Int).Mul(s.njPow[j-1], s.N)
	}
	s.dlogFactInv = make([][]*big.Int, s.S+1)
	kfact := new(big.Int)
	for j := 1; j <= s.S; j++ {
		s.dlogFactInv[j] = make([]*big.Int, j+1)
		kfact.SetInt64(1)
		for k := 2; k <= j; k++ {
			kfact.Mul(kfact, big.NewInt(int64(k)))
			s.dlogFactInv[j][k] = new(big.Int).ModInverse(kfact, s.njPow[j])
		}
	}
	s.halfInv = new(big.Int).ModInverse(big.NewInt(2), s.NS)
}

// Name implements homenc.Scheme.
func (s *Scheme) Name() string { return "damgard-jurik" }

// PlaintextSpace implements homenc.Scheme.
func (s *Scheme) PlaintextSpace() *big.Int { return s.NS }

// NumShares implements homenc.Scheme.
func (s *Scheme) NumShares() int { return s.nShares }

// Threshold implements homenc.Scheme.
func (s *Scheme) Threshold() int { return s.threshold }

// CiphertextBytes implements homenc.Scheme.
func (s *Scheme) CiphertextBytes() int { return (s.NS1.BitLen() + 7) / 8 }

// powOnePlusN computes (1+n)^m mod n^(s+1) through the binomial
// expansion: Σ_{i=0..s} C(m, i)·n^i, which is exact because n^(s+1)
// kills every higher term. This is dramatically cheaper than a modular
// exponentiation for the large m the protocol produces.
func (s *Scheme) powOnePlusN(m *big.Int) *big.Int {
	mr := new(big.Int).Mod(m, s.NS) // (1+n) has order n^s, so reduce first
	acc := big.NewInt(1)
	bin := big.NewInt(1)  // C(m, i) mod n^(s+1)
	npow := big.NewInt(1) // n^i
	for i := 1; i <= s.S; i++ {
		// C(m,i) = C(m,i-1)·(m-i+1)/i; the quotient is an integer, so
		// multiplying by i^{-1} mod n^(s+1) (i is coprime to n) yields
		// the correct residue.
		f := new(big.Int).Sub(mr, big.NewInt(int64(i-1)))
		bin.Mul(bin, f)
		bin.Mod(bin, s.NS1)
		bin.Mul(bin, s.smallInv[i])
		bin.Mod(bin, s.NS1)
		npow.Mul(npow, s.N)
		term := new(big.Int).Mul(bin, npow)
		acc.Add(acc, term)
		acc.Mod(acc, s.NS1)
	}
	return acc
}

// Encrypt implements homenc.Scheme: E(m) = (1+n)^m · r^(n^s) mod n^(s+1).
// The r^(n^s) factor is message-independent and comes from the
// randomizer pool when available, so the per-message work is one
// binomial evaluation and one modular multiply.
func (s *Scheme) Encrypt(m *big.Int) homenc.Ciphertext {
	c := s.powOnePlusN(m)
	c.Mul(c, s.takeRandomizer())
	c.Mod(c, s.NS1)
	return homenc.Ciphertext{V: c}
}

// takeRandomizer returns one fresh r^(n^s) factor. The pool only serves
// schemes drawing from crypto/rand: a caller-supplied Random source is
// consumed sequentially under randMu — arbitrary io.Readers are not
// safe for the concurrent draws the worker-pool layers perform — so
// deterministic readers stay reproducible (draw order under a parallel
// fan-out follows execution order, but each draw is whole and the
// stream is never torn).
func (s *Scheme) takeRandomizer() *big.Int {
	if random := s.Random; random != nil {
		s.randMu.Lock()
		defer s.randMu.Unlock()
		return s.newRandomizer(random)
	}
	if s.pool != nil {
		return s.pool.take()
	}
	return s.newRandomizer(nil)
}

// PrecomputeRandomizers synchronously stocks the randomizer pool with
// up to k encryption factors (bounded by the pool capacity), so an
// imminent burst of Encrypt calls — an EESum fan-out, a benchmark
// steady state — starts warm. It is a no-op for schemes with a custom
// Random source.
func (s *Scheme) PrecomputeRandomizers(k int) {
	if s.pool != nil && s.Random == nil {
		s.pool.prefill(k)
	}
}

func (s *Scheme) randomUnit() *big.Int {
	random := s.Random
	if random == nil {
		random = rand.Reader
	}
	for {
		r, err := rand.Int(random, s.N)
		if err != nil {
			panic("damgardjurik: entropy source failed: " + err.Error())
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, s.N).Cmp(one) == 0 {
			return r
		}
	}
}

// Add implements homenc.Scheme: E(a) +h E(b) = E(a)·E(b) mod n^(s+1).
func (s *Scheme) Add(a, b homenc.Ciphertext) homenc.Ciphertext {
	var quo big.Int
	z := new(big.Int).Mul(a.V, b.V)
	return homenc.Ciphertext{V: mod(z, &quo, z, s.NS1)}
}

// AddPublic implements homenc.Scheme: E(a) +h m = E(a)·(1+n)^m mod
// n^(s+1), the addition of m encrypted with randomizer 1. The result
// keeps a's randomizer: anyone holding a and m computes it.
func (s *Scheme) AddPublic(a homenc.Ciphertext, m *big.Int) homenc.Ciphertext {
	return s.Add(a, homenc.Ciphertext{V: s.powOnePlusN(m)})
}

// MergeVec implements homenc.Scheme: a[i]^(2^shift)·b[i] mod n^(s+1).
// Every result is below the modulus, so the image is sized at modulus
// width up front — dst's buffer, once it has held one merge, holds every
// later one; the vector's exponentiations fan out over at most workers
// contiguous chunks, each filling its own region of that image.
func (s *Scheme) MergeVec(dst *homenc.Vector, a homenc.Operand, shift uint, b homenc.Operand, workers int) {
	n := a.Len()
	if n != b.Len() {
		panic("damgardjurik: MergeVec length mismatch")
	}
	width := s.CiphertextBytes()
	out := dst.Rewrite(n, n*width)
	chunks := min(workers, n)
	if chunks <= 1 {
		s.mergeInto(&out, a, shift, b)
		out.Vector()
		return
	}
	parts := make([]homenc.VectorWriter, chunks)
	for c := range parts {
		count := (c+1)*n/chunks - c*n/chunks
		parts[c] = out.Chunk(count, count*width)
	}
	parallel.ForEach(chunks, chunks, func(c int) {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		s.mergeInto(&parts[c], a.Slice(lo, hi), shift, b.Slice(lo, hi))
	})
	out.Join(parts)
	out.Vector()
}

// mergeInto appends a[i]^(2^shift)·b[i] mod n^(s+1) to w, element by
// element, through scratch values that grow once per call. A shift in
// the direct-exponentiation range is that many squarings, which leave
// the same canonical residue as Exp without its per-call tables.
func (s *Scheme) mergeInto(w *homenc.VectorWriter, a homenc.Operand, shift uint, b homenc.Operand) {
	var k, x, y, t, prod, quo big.Int
	ra, rb := a.Reader(), b.Reader()
	for i := 0; i < a.Len(); i++ {
		xa := ra.Next(&x)
		if shift < crtDirectExpBits {
			for j := uint(0); j < shift; j++ {
				xa = mulMod(&t, &prod, &quo, xa, xa, s.NS1)
			}
		} else {
			xa = s.expNS1(xa, k.Lsh(one, shift))
		}
		w.Append(mulMod(&t, &prod, &quo, xa, rb.Next(&y), s.NS1))
	}
}

// ScalarMul implements homenc.Scheme: k ·h E(a) = E(a)^k mod n^(s+1).
func (s *Scheme) ScalarMul(a homenc.Ciphertext, k *big.Int) homenc.Ciphertext {
	if k.Sign() < 0 {
		panic("damgardjurik: negative scalar")
	}
	return homenc.Ciphertext{V: s.expNS1(a.V, k)}
}

// dLog recovers i from a = (1+n)^i mod n^(s+1), 0 <= i < n^s, using the
// iterative algorithm of Damgård–Jurik (PKC 2001, Section 3).
func (s *Scheme) dLog(a *big.Int) *big.Int {
	i := new(big.Int)
	for j := 1; j <= s.S; j++ {
		nj, nj1 := s.njPow[j], s.njPow[j+1]
		// t1 = L(a mod n^(j+1)) = (a mod n^(j+1) - 1) / n
		t1 := new(big.Int).Mod(a, nj1)
		t1.Sub(t1, one)
		t1.Div(t1, s.N)
		t1.Mod(t1, nj)
		t2 := new(big.Int).Set(i)
		ii := new(big.Int).Set(i)
		for k := 2; k <= j; k++ {
			ii.Sub(ii, one)
			t2.Mul(t2, ii)
			t2.Mod(t2, nj)
			// t1 -= t2 · n^(k-1) / k!   (division = cached inverse mod n^j)
			sub := new(big.Int).Mul(t2, s.njPow[k-1])
			sub.Mul(sub, s.dlogFactInv[j][k])
			t1.Sub(t1, sub)
			t1.Mod(t1, nj)
		}
		i = t1
	}
	return i
}

// Decrypt recovers the plaintext using the full exponent d — the
// non-threshold path, handy for tests and local-cost measurements.
// It computes c^(2d) (the factor 2 annihilates the random component)
// and divides the discrete log by 2.
func (s *Scheme) Decrypt(c homenc.Ciphertext) *big.Int {
	e := new(big.Int).Lsh(s.d, 1)
	a := s.expNS1(c.V, e)
	m := s.dLog(a)
	m.Mul(m, s.halfInv)
	return m.Mod(m, s.NS)
}

// PartialDecrypt implements homenc.Scheme: c_i = c^(2Δ·s_i) mod n^(s+1).
// The exponent was reduced modulo both half orders at key construction.
func (s *Scheme) PartialDecrypt(index int, c homenc.Ciphertext) (homenc.PartialDecryption, error) {
	if index < 1 || index > s.nShares {
		return homenc.PartialDecryption{}, fmt.Errorf("damgardjurik: key-share index %d out of range", index)
	}
	var v *big.Int
	if s.crt != nil {
		v = s.crt.exp(c.V, s.crt.decExp[index-1])
	} else {
		v = new(big.Int).Exp(c.V, s.decExp[index-1], s.NS1)
	}
	return homenc.PartialDecryption{Index: index, V: v}, nil
}

// Combine implements homenc.Scheme: it merges >= Threshold distinct
// partial decryptions into the plaintext,
//
//	c' = Π c_i^(2μ_i/g) = c^(4Δ²d/g) = (1+n)^(4Δ²g⁻¹·m)  mod n^(s+1),
//
// then m = dLog(c') · g(4Δ²)^{-1} mod n^s, where g is the exponents'
// common factor (see shareSetOf). The product is one multi-
// exponentiation per modulus — p^(s+1) and q^(s+1) when the scheme
// holds the factorization, n^(s+1) otherwise — whose squarings all τ
// bases share.
func (s *Scheme) Combine(c homenc.Ciphertext, parts []homenc.PartialDecryption) (*big.Int, error) {
	set, err := s.shareSetOf(parts)
	if err != nil {
		return nil, err
	}
	var xq, prod, quo big.Int
	bases := make([]big.Int, len(parts))
	acc := new(big.Int)
	var ok bool
	if cc := s.crt; cc == nil {
		ok = set.power(acc, &prod, &quo, parts, s.NS1, bases)
	} else if ok = set.power(acc, &prod, &quo, parts, cc.ps1, bases) && set.power(&xq, &prod, &quo, parts, cc.qs1, bases); ok {
		cc.combine(acc, &prod, &quo, acc, &xq)
	}
	if !ok {
		return nil, errors.New("damgardjurik: partial decryption not invertible")
	}
	m := s.dLog(acc)
	m.Mul(m, set.scale)
	return m.Mod(m, s.NS), nil
}

// shareSet is the Lagrange side of a Combine: the share indices in the
// order they were passed, each one's exponent 2μ_i/g as a magnitude and
// a sign, and the plaintext scale g(4Δ²)^{-1} mod n^s. It depends on
// the indices alone, and every element of a decrypted vector is
// combined from the same ones.
type shareSet struct {
	index []int
	exp   []*big.Int // |2μ_i/g|
	neg   []bool     // μ_i < 0
	bits  int        // the longest magnitude's bit length
	scale *big.Int   // g·(4Δ²)^{-1} mod n^s
}

// shareSetOf returns the share set of parts: the scheme's last one when
// the indices match, else a new one, validated, which becomes the last.
//
// The coefficients 2μ_i share most of Δ as a common factor g — over
// every 4- and 5-subset of 12 shares, exponents of 22 to 42 bits
// shrink to 1 to 14 — and the product does not need it: Σ μ_i·s_i = Δd + K·n^s·p'q' for some integer K, and g's
// prime factors are at most nShares, so g is a unit modulo n^s and
// p'q'. Hence Π c_i^(2μ_i/g) still annihilates the randomizer and
// leaves (1+n)^(4Δ²g⁻¹·m), and g returns in the plaintext scale.
func (s *Scheme) shareSetOf(parts []homenc.PartialDecryption) (*shareSet, error) {
	last := s.lastSet.Load()
	if last != nil && slices.EqualFunc(last.index, parts, func(x int, p homenc.PartialDecryption) bool { return x == p.Index }) {
		return last, nil
	}
	xs := make([]int, len(parts))
	for i, p := range parts {
		if p.Index < 1 || p.Index > s.nShares {
			return nil, fmt.Errorf("damgardjurik: key-share index %d out of range", p.Index)
		}
		// A duplicate sits within the first nShares+1 entries, so the
		// scan is bounded by the share count whatever len(parts) is.
		if slices.Contains(xs[:i], p.Index) {
			return nil, fmt.Errorf("damgardjurik: duplicate key-share %d", p.Index)
		}
		xs[i] = p.Index
	}
	if len(xs) < s.threshold {
		return nil, errors.New("damgardjurik: not enough distinct key-shares")
	}
	set := &shareSet{index: xs, exp: make([]*big.Int, len(xs)), neg: make([]bool, len(xs))}
	g := new(big.Int)
	for i, x := range xs {
		mu, err := shamir.Lambda0(xs, x, s.nShares)
		if err != nil {
			return nil, err
		}
		set.neg[i] = mu.Sign() < 0
		set.exp[i] = mu.Lsh(mu.Abs(mu), 1)
		g.GCD(nil, nil, g, set.exp[i])
	}
	for _, e := range set.exp {
		e.Quo(e, g)
		set.bits = max(set.bits, e.BitLen())
	}
	set.scale = new(big.Int).Mod(g.Mul(g, s.combInv), s.NS)
	s.lastSet.Store(set)
	return set, nil
}

// power sets z = Π parts[i]^(±exp[i]) mod m, the bases first reduced
// into bases, and reports whether the negative side was invertible. It
// is Straus's simultaneous exponentiation: one squaring per exponent
// bit serves every base. Bases with a negative coefficient multiply a
// second accumulator, inverted once at the end.
func (set *shareSet) power(z, prod, quo *big.Int, parts []homenc.PartialDecryption, m *big.Int, bases []big.Int) bool {
	for i, p := range parts {
		mod(&bases[i], quo, p.V, m)
	}
	hasNeg := slices.Contains(set.neg, true)
	var neg big.Int
	z.SetInt64(1)
	neg.SetInt64(1)
	for bit := set.bits - 1; bit >= 0; bit-- {
		mulMod(z, prod, quo, z, z, m)
		if hasNeg {
			mulMod(&neg, prod, quo, &neg, &neg, m)
		}
		for i, e := range set.exp {
			if e.Bit(bit) == 0 {
				continue
			}
			if set.neg[i] {
				mulMod(&neg, prod, quo, &neg, &bases[i], m)
			} else {
				mulMod(z, prod, quo, z, &bases[i], m)
			}
		}
	}
	if !hasNeg {
		return true
	}
	if neg.ModInverse(&neg, m) == nil {
		return false
	}
	mulMod(z, prod, quo, z, &neg, m)
	return true
}

var _ homenc.Scheme = (*Scheme)(nil)

// safePrime generates a prime p = 2p'+1 with p' prime, of the given bit
// length.
func safePrime(random io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, errors.New("damgardjurik: safe prime below 16 bits")
	}
	for {
		pp, err := rand.Prime(random, bits-1)
		if err != nil {
			return nil, err
		}
		p := new(big.Int).Lsh(pp, 1)
		p.Add(p, one)
		if p.ProbablyPrime(24) {
			return p, nil
		}
	}
}
