package damgardjurik

import (
	"bytes"
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"chiaroscuro/internal/homenc"
)

// TestExpNS1MatchesExp checks the CRT exponentiation (with group-order
// exponent reduction) against the naive modular exponentiation for unit
// bases across degrees, including exponents far larger than the group
// order (the protocol's 2Δ·s_i decryption exponents).
func TestExpNS1MatchesExp(t *testing.T) {
	for _, s := range []int{1, 2, 3} {
		sch := testScheme(t, 128, s)
		bases := []*big.Int{
			big.NewInt(2),
			new(big.Int).Add(sch.N, big.NewInt(1)),
			sch.Encrypt(big.NewInt(123456)).V,
		}
		exps := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(1 << 20),
			new(big.Int).Sub(sch.NS1, big.NewInt(3)),
			new(big.Int).Mul(sch.NS1, sch.NS1), // way past the group order
		}
		for _, b := range bases {
			for _, e := range exps {
				want := new(big.Int).Exp(b, e, sch.NS1)
				if got := sch.expNS1(b, e); got.Cmp(want) != 0 {
					t.Errorf("s=%d base=%v e=%v: expNS1 = %v, want %v", s, b, e, got, want)
				}
			}
		}
	}
}

func TestInvNS1MatchesModInverse(t *testing.T) {
	sch := testScheme(t, 128, 2)
	for _, m := range []int64{1, 2, 42, 1 << 40} {
		x := sch.Encrypt(big.NewInt(m)).V
		want := new(big.Int).ModInverse(x, sch.NS1)
		if got := sch.invNS1(x); got.Cmp(want) != 0 {
			t.Errorf("invNS1(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestRandomizerSubgroup verifies that sampled randomizers are n^s-th
// residues: they must land in the subgroup of order φ(n), i.e. be
// annihilated by φ(n) — which a uniform unit of Z*_{n^(s+1)} is not
// (the full group has order n^s·φ(n)).
func TestRandomizerSubgroup(t *testing.T) {
	for _, s := range []int{1, 2} {
		sch := testScheme(t, 128, s)
		p, q, err := KnownSafePrimes(64)
		if err != nil {
			t.Fatal(err)
		}
		phi := new(big.Int).Mul(
			new(big.Int).Sub(p, big.NewInt(1)),
			new(big.Int).Sub(q, big.NewInt(1)),
		)
		for i := 0; i < 8; i++ {
			rho := sch.newRandomizer(nil)
			got := new(big.Int).Exp(rho, phi, sch.NS1)
			if got.Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("s=%d: randomizer^phi(n) = %v, not an n^s-th residue", s, got)
			}
			// And it must decrypt as E(0): the randomizer is exactly a
			// fresh encryption of zero.
			if m := sch.Decrypt(homenc.Ciphertext{V: rho}); m.Sign() != 0 {
				t.Fatalf("s=%d: randomizer decrypts to %v, want 0", s, m)
			}
		}
	}
}

// TestPoolPathRoundTrip drains past the pool capacity so both pooled
// and inline randomizers are exercised, and every ciphertext must still
// decrypt correctly and differ from its neighbors (semantic security).
func TestPoolPathRoundTrip(t *testing.T) {
	sch := testScheme(t, 128, 1)
	sch.PrecomputeRandomizers(16)
	m := big.NewInt(777)
	prev := sch.Encrypt(m)
	for i := 0; i < 64; i++ {
		c := sch.Encrypt(m)
		if c.V.Cmp(prev.V) == 0 {
			t.Fatal("consecutive encryptions are identical")
		}
		if got := sch.Decrypt(c); got.Cmp(m) != 0 {
			t.Fatalf("pool path round trip: got %v, want %v", got, m)
		}
		prev = c
	}
}

func TestScalarMulLargeExponent(t *testing.T) {
	// Exponents above crtDirectExpBits take the CRT path; cross-check
	// the homomorphic property against plaintext arithmetic.
	sch := testScheme(t, 128, 2)
	k := new(big.Int).Lsh(big.NewInt(1), 80) // 81-bit scalar
	k.Add(k, big.NewInt(12345))
	m := big.NewInt(9)
	c := sch.ScalarMul(sch.Encrypt(m), k)
	want := new(big.Int).Mul(m, k)
	want.Mod(want, sch.NS)
	if got := sch.Decrypt(c); got.Cmp(want) != 0 {
		t.Errorf("ScalarMul large k: got %v, want %v", got, want)
	}
}

// combCase is a comb over a generator of H_p at degree s: modulus
// p^(s+1), exponents below the subgroup order p-1.
type combCase struct {
	s        int
	g, ord   *big.Int
	tab      *combTable
	expLimit *big.Int // 2^(6·windows): the comb's exponent range
}

// combCases builds combs for the 64-bit and the 512-bit test prime (the
// paper's 1024-bit key) at s = 1, 2, 3. The 64-bit prime's order has 64
// bits, so its top window holds 4 of its 6 bits below the order and
// straddles the first word boundary.
func combCases(t testing.TB) []combCase {
	t.Helper()
	var cases []combCase
	for _, bits := range []int{64, 512} {
		p, _, err := KnownSafePrimes(bits)
		if err != nil {
			t.Fatal(err)
		}
		ord := new(big.Int).Sub(p, one)
		for s := 1; s <= 3; s++ {
			pPowS := pow(p, s)
			ps1 := new(big.Int).Mul(pPowS, p)
			g := generatorH(nil, p, pPowS, ps1)
			tab := newCombTable(g, ps1, ord.BitLen())
			limit := new(big.Int).Lsh(one, uint(combWindow*len(tab.tab)))
			cases = append(cases, combCase{s: s, g: g, ord: ord, tab: tab, expLimit: limit})
		}
	}
	return cases
}

// TestCombTableMatchesExp runs the Barrett comb against Exp at s = 1, 2,
// 3, through one result and one scratch back to back, so nothing may
// leak from one call into the next, and through fresh ones. The edge
// exponents: 0, 1, every digit all ones, the subgroup order less one,
// and a lone digit at either end of the top window, which the order
// leaves short. Barrett's reduction itself is checked against Mod at
// the ends of its range [0, m²).
func TestCombTableMatchesExp(t *testing.T) {
	for _, c := range combCases(t) {
		var z, prod, quo big.Int
		check := func(es ...*big.Int) bool {
			for _, e := range es {
				want := new(big.Int).Exp(c.g, e, c.tab.mod)
				if c.tab.exp(&z, &prod, &quo, e).Cmp(want) != 0 || c.tab.exp(new(big.Int), new(big.Int), new(big.Int), e).Cmp(want) != 0 {
					return false
				}
			}
			return true
		}
		top := uint(combWindow * (len(c.tab.tab) - 1))
		edges := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(c.expLimit, one),
			new(big.Int).Sub(c.ord, one),
			new(big.Int).Lsh(one, top),
			new(big.Int).Lsh(one, top+combWindow-1),
			big.NewInt(0),
		}
		if !check(edges...) {
			t.Errorf("%d-bit prime, s=%d: comb disagrees with Exp at an edge exponent", c.ord.BitLen(), c.s)
		}
		f := func(raw, raw2 uint64) bool {
			e := new(big.Int).Mod(new(big.Int).SetUint64(raw), c.ord)
			e2 := new(big.Int).Lsh(new(big.Int).SetUint64(raw2), uint(c.ord.BitLen()-64))
			return check(e, e2, e)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%d-bit prime, s=%d: %v", c.ord.BitLen(), c.s, err)
		}
		m := c.tab.mod
		sq := new(big.Int).Mul(m, m)
		for _, x := range []*big.Int{
			big.NewInt(0), big.NewInt(1),
			new(big.Int).Sub(m, one), new(big.Int).Set(m), new(big.Int).Add(m, one),
			new(big.Int).Mul(new(big.Int).Sub(m, one), new(big.Int).Sub(m, one)),
			new(big.Int).Sub(sq, one),
		} {
			if got, want := c.tab.reduce(new(big.Int), new(big.Int), x), new(big.Int).Mod(x, m); got.Cmp(want) != 0 {
				t.Errorf("%d-bit prime, s=%d: reduce(%v) = %v, want %v", c.ord.BitLen(), c.s, x, got, want)
			}
		}
	}
}

// FuzzCombTableMatchesExp: for any exponent in the comb's range, at any
// of combCases' primes and degrees, the Barrett comb agrees with Exp.
func FuzzCombTableMatchesExp(f *testing.F) {
	cases := combCases(f)
	f.Add(uint8(0), []byte{0})
	f.Add(uint8(1), bytes.Repeat([]byte{0xff}, 9))
	f.Add(uint8(2), []byte{0x02, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(3), bytes.Repeat([]byte{0xa5}, 64))
	f.Fuzz(func(t *testing.T, pick uint8, raw []byte) {
		c := cases[int(pick)%len(cases)]
		e := new(big.Int).SetBytes(raw)
		e.Mod(e, c.expLimit)
		var z, prod, quo big.Int
		if got, want := c.tab.exp(&z, &prod, &quo, e), new(big.Int).Exp(c.g, e, c.tab.mod); got.Cmp(want) != 0 {
			t.Fatalf("%d-bit prime, s=%d, e=%v: comb = %v, want %v", c.ord.BitLen(), c.s, e, got, want)
		}
	})
}

// lcgReader is a trivially deterministic entropy source: two instances
// produce the same byte stream.
type lcgReader struct{ state uint64 }

func (r *lcgReader) Read(p []byte) (int, error) {
	for i := range p {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.state >> 56)
	}
	return len(p), nil
}

// TestDeterministicReaderReproducibleCiphertexts builds two schemes
// from identical deterministic readers: the subgroup generators, the
// Shamir shares and every randomizer draw must replay identically, so
// the ciphertext bytes are equal across runs (the pre-existing
// contract for callers supplying a custom Random source).
func TestDeterministicReaderReproducibleCiphertexts(t *testing.T) {
	p, q, err := KnownSafePrimes(64)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Scheme {
		sch, err := NewFromPrimes(&lcgReader{state: 7}, p, q, 2, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		return sch
	}
	a, b := build(), build()
	for i := 0; i < 5; i++ {
		m := big.NewInt(int64(1000 + i))
		ca, cb := a.Encrypt(m), b.Encrypt(m)
		if ca.V.Cmp(cb.V) != 0 {
			t.Fatalf("encryption %d not reproducible across identical readers", i)
		}
		if got := a.Decrypt(ca); got.Cmp(m) != 0 {
			t.Fatalf("deterministic-reader round trip: got %v, want %v", got, m)
		}
	}
}

// TestCustomRandomConcurrentEncrypt hammers Encrypt from many
// goroutines on a scheme with a custom (non-thread-safe) Random
// reader: randMu must serialize the draws (run under -race).
func TestCustomRandomConcurrentEncrypt(t *testing.T) {
	p, q, err := KnownSafePrimes(64)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewFromPrimes(&lcgReader{state: 3}, p, q, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := big.NewInt(4242)
	var wg sync.WaitGroup
	cts := make([]homenc.Ciphertext, 32)
	for g := range cts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cts[g] = sch.Encrypt(m)
		}(g)
	}
	wg.Wait()
	for _, c := range cts {
		if got := sch.Decrypt(c); got.Cmp(m) != 0 {
			t.Fatalf("concurrent custom-reader encrypt mangled: %v", got)
		}
	}
}

// TestGeneratorOrder checks that generatorH really returns an element
// of full order p-1 = 2p'.
func TestGeneratorOrder(t *testing.T) {
	p, _, err := KnownSafePrimes(64)
	if err != nil {
		t.Fatal(err)
	}
	ps1 := new(big.Int).Mul(p, p)
	g := generatorH(nil, p, p, ps1)
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	pp := new(big.Int).Rsh(pm1, 1)
	one := big.NewInt(1)
	if new(big.Int).Exp(g, pm1, ps1).Cmp(one) != 0 {
		t.Error("generator order does not divide p-1")
	}
	if new(big.Int).Exp(g, pp, ps1).Cmp(one) == 0 {
		t.Error("generator order divides p'")
	}
	if sq := new(big.Int).Exp(g, big.NewInt(2), ps1); sq.Cmp(one) == 0 {
		t.Error("generator order divides 2")
	}
}
