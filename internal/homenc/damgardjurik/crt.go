package damgardjurik

import (
	"crypto/rand"
	"io"
	"math/big"
)

// crtDirectExpBits is the exponent size below which a direct modular
// exponentiation beats the CRT split (two half-width reductions plus a
// Garner recombination have a fixed cost that tiny exponents — the
// power-of-two epoch scalings of EESum — do not amortize).
const crtDirectExpBits = 32

// crtContext holds the factorization-derived constants that accelerate
// arithmetic in Z*_{n^(s+1)}. The scheme legitimately owns p and q (it
// generated them), so every exponentiation can run modulo the two
// half-width prime powers p^(s+1) and q^(s+1) and be recombined by CRT.
// Both halves additionally reduce the exponent modulo the (known) group
// order, which shrinks the protocol's oversized decryption exponents —
// 2Δ·s_i is about twice the modulus size — down to half-width.
//
// For encryption it goes further: the randomizer factors r^(n^s) form
// the unique cyclic subgroup of order p-1 (resp. q-1) in each half, so
// a per-key generator plus a fixed-base comb table turn randomizer
// sampling into ~log2(p)/6 modular multiplications with no squarings.
type crtContext struct {
	p, q       *big.Int // the safe primes
	ps1, qs1   *big.Int // p^(s+1), q^(s+1)
	pPowS      *big.Int // p^s
	qPowS      *big.Int // q^s
	ordP, ordQ *big.Int // |Z*_{p^(s+1)}| = p^s(p-1), |Z*_{q^(s+1)}| = q^s(q-1)
	qs1InvP    *big.Int // (q^(s+1))^(-1) mod p^(s+1), for Garner recombination

	hOrdP, hOrdQ *big.Int   // |H_p| = p-1, |H_q| = q-1 (randomizer subgroups)
	combP, combQ *combTable // fixed-base tables over generators of H_p, H_q

	decExp []halves // each share's partial-decryption exponent 2Δ·s_i, reduced
}

// newCRTContext derives the constants from the factorization and the
// shares' decryption exponents. random seeds the subgroup-generator
// search (nil = crypto/rand); a deterministic reader yields
// deterministic generators, keeping ciphertexts reproducible across
// runs for callers that construct the scheme with one.
func newCRTContext(random io.Reader, p, q *big.Int, s int, decExp []*big.Int) *crtContext {
	c := &crtContext{p: p, q: q}
	c.pPowS = pow(p, s)
	c.qPowS = pow(q, s)
	c.ps1 = new(big.Int).Mul(c.pPowS, p)
	c.qs1 = new(big.Int).Mul(c.qPowS, q)
	c.ordP = new(big.Int).Mul(c.pPowS, new(big.Int).Sub(p, one))
	c.ordQ = new(big.Int).Mul(c.qPowS, new(big.Int).Sub(q, one))
	c.qs1InvP = new(big.Int).ModInverse(c.qs1, c.ps1)
	c.hOrdP = new(big.Int).Sub(p, one)
	c.hOrdQ = new(big.Int).Sub(q, one)
	c.combP = newCombTable(generatorH(random, p, c.pPowS, c.ps1), c.ps1, c.hOrdP.BitLen())
	c.combQ = newCombTable(generatorH(random, q, c.qPowS, c.qs1), c.qs1, c.hOrdQ.BitLen())
	c.decExp = make([]halves, len(decExp))
	for i, e := range decExp {
		c.decExp[i] = c.reduce(e)
	}
	return c
}

func pow(b *big.Int, e int) *big.Int {
	out := new(big.Int).Set(b)
	for i := 1; i < e; i++ {
		out.Mul(out, b)
	}
	return out
}

// mod sets z = x mod m, Euclidean as Int.Mod, and returns z. The
// quotient it discards goes to quo: a kernel reducing in a loop passes
// the same quo every time, so it grows once instead of being allocated
// afresh per reduction, as Int.Mod's is. z may be x.
func mod(z, quo, x, m *big.Int) *big.Int {
	quo.QuoRem(x, m, z)
	if z.Sign() < 0 { // a peer may send a negative value
		z.Add(z, m)
	}
	return z
}

// mulMod sets z = x·y mod m through the scratch values prod and quo,
// and returns z. z may be x or y.
func mulMod(z, prod, quo, x, y, m *big.Int) *big.Int {
	return mod(z, quo, prod.Mul(x, y), m)
}

// combine sets z to the x mod n^(s+1) with x ≡ xp (mod p^(s+1)) and
// x ≡ xq (mod q^(s+1)) (Garner's formula) through prod and quo, and
// returns z. z may be xp, not xq.
func (c *crtContext) combine(z, prod, quo, xp, xq *big.Int) *big.Int {
	z.Sub(xp, xq)
	mulMod(z, prod, quo, z, c.qs1InvP, c.ps1)
	return z.Add(prod.Mul(z, c.qs1), xq) // < p^(s+1)·q^(s+1) = n^(s+1) by construction
}

// halves is an exponent reduced modulo the two half-width group orders.
type halves struct{ p, q *big.Int }

func (c *crtContext) reduce(e *big.Int) halves {
	return halves{new(big.Int).Mod(e, c.ordP), new(big.Int).Mod(e, c.ordQ)}
}

// exp computes base^e mod n^(s+1) on the two half-width moduli from e's
// reductions. The group-order reduction requires gcd(base, n) = 1, which
// holds for every value the scheme exponentiates (ciphertexts and
// partial decryptions are units).
func (c *crtContext) exp(base *big.Int, e halves) *big.Int {
	var r, prod, quo big.Int
	xp := new(big.Int).Exp(mod(&r, &quo, base, c.ps1), e.p, c.ps1)
	xq := new(big.Int).Exp(mod(&r, &quo, base, c.qs1), e.q, c.qs1)
	return c.combine(xp, &prod, &quo, xp, xq)
}

// expNS1 computes base^e mod n^(s+1) for a non-negative exponent,
// through the CRT split when it pays off.
func (s *Scheme) expNS1(base, e *big.Int) *big.Int {
	if s.crt == nil || e.BitLen() <= crtDirectExpBits {
		return new(big.Int).Exp(base, e, s.NS1)
	}
	return s.crt.exp(base, s.crt.reduce(e))
}

// newRandomizer draws a fresh encryption randomizer — the message-
// independent factor r^(n^s) mod n^(s+1) of E(m) — from the given
// entropy source (crypto/rand when nil).
//
// The sampled distribution is exactly the scheme's. For uniform r in
// Z*_n, the component r^(n^s) mod p^(s+1) lies in the unique subgroup
// H_p of order p-1 (the cyclic group Z*_{p^(s+1)} has order p^s(p-1);
// raising to n^s = p^s·q^s annihilates the p^s part, and gcd(q^s, p-1)
// = 1 permutes the rest), it is uniform over H_p because r mod p is a
// uniform unit, and the p and q components are independent because
// r mod p and r mod q are. g_p^t for a fixed generator g_p of H_p and
// uniform t in [0, p-1) is the same uniform draw from H_p — computed
// by the precomputed comb table in a few dozen multiplications.
func (s *Scheme) newRandomizer(random io.Reader) *big.Int {
	if random == nil {
		random = rand.Reader
	}
	c := s.crt
	if c == nil {
		r := s.randomUnit()
		return r.Exp(r, s.NS, s.NS1)
	}
	tp, err := rand.Int(random, c.hOrdP)
	if err != nil {
		panic("damgardjurik: entropy source failed: " + err.Error())
	}
	tq, err := rand.Int(random, c.hOrdQ)
	if err != nil {
		panic("damgardjurik: entropy source failed: " + err.Error())
	}
	var prod, quo big.Int
	xp := c.combP.exp(new(big.Int), &prod, &quo, tp)
	return c.combine(xp, &prod, &quo, xp, c.combQ.exp(tp, &prod, &quo, tq))
}

// generatorH finds a generator of H_p, the cyclic subgroup of n^s-th
// residues mod p^(s+1). For a safe prime p = 2p'+1 the subgroup has
// order 2p', so h generates iff h² ≠ 1 and h^(p') ≠ 1; a uniform h
// (the canonical lift w^(p^s) of a uniform w in Z*_p) succeeds with
// probability (p'-1)/(2p') ≈ 1/2 per draw.
func generatorH(random io.Reader, p, pPowS, ps1 *big.Int) *big.Int {
	if random == nil {
		random = rand.Reader
	}
	pp := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1) // p'
	for {
		w, err := rand.Int(random, p)
		if err != nil {
			panic("damgardjurik: entropy source failed: " + err.Error())
		}
		if w.Sign() == 0 {
			continue
		}
		h := w.Exp(w, pPowS, ps1)
		sq := new(big.Int).Mul(h, h)
		if sq.Mod(sq, ps1).Cmp(one) == 0 {
			continue
		}
		if new(big.Int).Exp(h, pp, ps1).Cmp(one) == 0 {
			continue
		}
		return h
	}
}

// combWindow is the fixed-base window width: 6 bits keeps the table
// at ⌈bits/6⌉·63 entries — 86·63 = 5,418 per 512-bit prime, ≈ 1 MB at
// the paper's 1024-bit key — and replaces every squaring of a generic
// exponentiation with one table-lookup multiply per 6 exponent bits.
const combWindow = 6

// combTable implements fixed-base modular exponentiation: tab[i][j-1]
// holds g^(j·2^(6i)) mod m, so g^e is the product of one entry per
// non-zero 6-bit digit of e. Every product it reduces has two factors
// below m, so it reduces by Barrett's method through mu = ⌊2^(2k)/m⌋,
// k the bit length of m, with two multiplications and no division.
type combTable struct {
	mod *big.Int
	mu  *big.Int
	k   uint
	tab [][]*big.Int
}

func newCombTable(g, mod *big.Int, expBits int) *combTable {
	windows := (expBits + combWindow - 1) / combWindow
	k := uint(mod.BitLen())
	t := &combTable{
		mod: mod,
		mu:  new(big.Int).Quo(new(big.Int).Lsh(one, 2*k), mod),
		k:   k,
		tab: make([][]*big.Int, windows),
	}
	// Each entry is copied out of the scratch z, which reduce grows to
	// twice the modulus width, so the table holds modulus-width values.
	var z, prod, quo big.Int
	base := new(big.Int).Set(g)
	for i := range t.tab {
		row := make([]*big.Int, 1<<combWindow-1)
		row[0] = base
		for j := 1; j < len(row); j++ {
			row[j] = new(big.Int).Set(t.reduce(&z, &quo, prod.Mul(row[j-1], base)))
		}
		t.tab[i] = row
		// Next window base: base^(2^combWindow) = row[last] · base.
		base = new(big.Int).Set(t.reduce(&z, &quo, prod.Mul(row[len(row)-1], base)))
	}
	return t
}

// reduce sets z = x mod m for 0 <= x < m² and returns z, through the
// scratch value quo: the quotient estimate ⌊⌊x/2^(k-1)⌋·mu/2^(k+1)⌋
// falls short of ⌊x/m⌋ by at most 2 (HAC 14.42), so at most two
// subtractions finish it. z must not be x or quo. Only operands the
// table itself produced qualify: a value a peer sent may exceed m², and
// its reduction wants mod.
func (t *combTable) reduce(z, quo, x *big.Int) *big.Int {
	quo.Rsh(x, t.k-1)
	z.Mul(quo, t.mu)
	quo.Rsh(z, t.k+1)
	z.Sub(x, z.Mul(quo, t.mod))
	for z.Cmp(t.mod) >= 0 {
		z.Sub(z, t.mod)
	}
	return z
}

// exp sets z = g^e mod m for 0 <= e < 2^(6·len(tab)) and returns z:
// one multiplication per non-zero 6-bit digit, all through the scratch
// values prod and quo. z must not be e.
func (t *combTable) exp(z, prod, quo, e *big.Int) *big.Int {
	z.SetInt64(1)
	for i := 0; i < len(t.tab) && combWindow*i < e.BitLen(); i++ {
		var d uint
		for b := combWindow - 1; b >= 0; b-- {
			d = d<<1 | e.Bit(combWindow*i+b)
		}
		if d != 0 {
			t.reduce(z, quo, prod.Mul(z, t.tab[i][d-1]))
		}
	}
	return z
}
