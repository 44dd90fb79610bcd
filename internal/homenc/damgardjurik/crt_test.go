package damgardjurik

import (
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

// TestCombTableMatchesExp runs the comb through one result and one
// scratch back to back, so nothing may leak from one call into the next,
// and through fresh ones, against Exp.
func TestCombTableMatchesExp(t *testing.T) {
	p, _, err := KnownSafePrimes(64)
	if err != nil {
		t.Fatal(err)
	}
	ps1 := new(big.Int).Mul(p, p)
	g := generatorH(nil, p, p, ps1)
	ord := new(big.Int).Sub(p, big.NewInt(1))
	tab := newCombTable(g, ps1, ord.BitLen())
	var z, prod, quo big.Int
	check := func(es ...*big.Int) bool {
		for _, e := range es {
			want := new(big.Int).Exp(g, e, ps1)
			if tab.exp(&z, &prod, &quo, e).Cmp(want) != 0 || tab.exp(new(big.Int), new(big.Int), new(big.Int), e).Cmp(want) != 0 {
				return false
			}
		}
		return true
	}
	if !check(big.NewInt(0), new(big.Int).Sub(ord, big.NewInt(1)), big.NewInt(1), big.NewInt(0)) {
		t.Error("comb disagrees with Exp at the ends of the exponent range")
	}
	f := func(raw, raw2 uint64) bool {
		e := new(big.Int).Mod(new(big.Int).SetUint64(raw), ord)
		e2 := new(big.Int).Mod(new(big.Int).SetUint64(raw2), ord)
		return check(e, e2, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
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
