package damgardjurik

import (
	"math/big"
	"testing"
	"testing/quick"

	"chiaroscuro/internal/homenc"
)

func testScheme(t testing.TB, keyBits, s int) *Scheme {
	t.Helper()
	sch, err := NewTestScheme(keyBits, s, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, s := range []int{1, 2, 3} {
		sch := testScheme(t, 128, s)
		for _, m := range []int64{0, 1, 42, 1 << 30, -5} {
			c := sch.Encrypt(big.NewInt(m))
			got := sch.Decrypt(c)
			want := new(big.Int).Mod(big.NewInt(m), sch.NS)
			if got.Cmp(want) != 0 {
				t.Errorf("s=%d: Decrypt(Encrypt(%d)) = %v, want %v", s, m, got, want)
			}
		}
	}
}

func TestNegativeViaCentered(t *testing.T) {
	sch := testScheme(t, 128, 1)
	c := sch.Encrypt(big.NewInt(-12345))
	got := homenc.Centered(sch.Decrypt(c), sch.PlaintextSpace())
	if got.Cmp(big.NewInt(-12345)) != 0 {
		t.Errorf("centered decrypt = %v, want -12345", got)
	}
}

func TestSemanticRandomization(t *testing.T) {
	// Two encryptions of the same plaintext must differ (the scheme is
	// probabilistic; determinism would break semantic security).
	sch := testScheme(t, 128, 1)
	a := sch.Encrypt(big.NewInt(7))
	b := sch.Encrypt(big.NewInt(7))
	if a.V.Cmp(b.V) == 0 {
		t.Error("two encryptions of the same plaintext are identical")
	}
	if sch.Decrypt(a).Cmp(sch.Decrypt(b)) != 0 {
		t.Error("randomized ciphertexts decrypt differently")
	}
}

func TestHomomorphicAddQuick(t *testing.T) {
	// Section 3.3.1 property 2: D(E(a) +h E(b)) == a + b.
	sch := testScheme(t, 128, 1)
	f := func(a, b uint32) bool {
		ca := sch.Encrypt(big.NewInt(int64(a)))
		cb := sch.Encrypt(big.NewInt(int64(b)))
		got := sch.Decrypt(sch.Add(ca, cb))
		return got.Cmp(big.NewInt(int64(a)+int64(b))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestAddPublicMatchesPlaintextSum: adding a public plaintext shifts the
// decryption by it modulo n^s — for negative values, zero, and values at
// and past the plaintext space — at s = 1, 2, 3, with the factorization
// and without it. The result is c·(1+n)^m mod n^(s+1) exactly: a
// function of the ciphertext and the plaintext alone, which any holder
// of both computes.
func TestAddPublicMatchesPlaintextSum(t *testing.T) {
	for _, s := range []int{1, 2, 3} {
		for _, crt := range []bool{true, false} {
			sch := thresholdScheme(t, s, 4, crt)
			c := sch.Encrypt(big.NewInt(987654321))
			base := sch.Decrypt(c)
			onePlusN := new(big.Int).Add(sch.N, one)
			for _, m := range []*big.Int{
				big.NewInt(-1),
				big.NewInt(-123456789),
				new(big.Int).Neg(sch.NS),
				big.NewInt(0),
				new(big.Int).Set(sch.NS),
				new(big.Int).Add(sch.NS, big.NewInt(5)),
				new(big.Int).Mul(sch.NS1, big.NewInt(3)),
			} {
				got := sch.AddPublic(c, m)
				mr := new(big.Int).Mod(m, sch.NS)
				if want := new(big.Int).Add(base, mr); sch.Decrypt(got).Cmp(want.Mod(want, sch.NS)) != 0 {
					t.Errorf("s=%d crt=%v m=%v: Decrypt(AddPublic) = %v, want %v", s, crt, m, sch.Decrypt(got), want)
				}
				want := new(big.Int).Exp(onePlusN, mr, sch.NS1)
				if want.Mod(want.Mul(want, c.V), sch.NS1); got.V.Cmp(want) != 0 {
					t.Errorf("s=%d crt=%v m=%v: AddPublic = %v, want c·(1+n)^m = %v", s, crt, m, got.V, want)
				}
			}
		}
	}
}

func TestScalarMulQuick(t *testing.T) {
	sch := testScheme(t, 128, 1)
	f := func(a uint16, k uint8) bool {
		ca := sch.Encrypt(big.NewInt(int64(a)))
		got := sch.Decrypt(sch.ScalarMul(ca, big.NewInt(int64(k))))
		return got.Cmp(big.NewInt(int64(a)*int64(k))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestThresholdDecryption(t *testing.T) {
	sch := testScheme(t, 128, 1)
	m := big.NewInt(987654321)
	c := sch.Encrypt(m)
	// Exactly threshold = 3 shares, various subsets.
	for _, subset := range [][]int{{1, 2, 3}, {1, 3, 5}, {2, 4, 5}, {3, 4, 5}} {
		parts := make([]homenc.PartialDecryption, 0, len(subset))
		for _, idx := range subset {
			p, err := sch.PartialDecrypt(idx, c)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		got, err := sch.Combine(c, parts)
		if err != nil {
			t.Fatalf("subset %v: %v", subset, err)
		}
		if got.Cmp(m) != 0 {
			t.Errorf("subset %v: combined %v, want %v", subset, got, m)
		}
	}
}

func TestThresholdMoreThanTau(t *testing.T) {
	sch := testScheme(t, 128, 1)
	m := big.NewInt(31337)
	c := sch.Encrypt(m)
	parts := make([]homenc.PartialDecryption, 0, 5)
	for idx := 1; idx <= 5; idx++ {
		p, err := sch.PartialDecrypt(idx, c)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	got, err := sch.Combine(c, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Errorf("all-shares combine = %v, want %v", got, m)
	}
}

func TestThresholdTooFewShares(t *testing.T) {
	sch := testScheme(t, 128, 1)
	c := sch.Encrypt(big.NewInt(1))
	p1, _ := sch.PartialDecrypt(1, c)
	p2, _ := sch.PartialDecrypt(2, c)
	if _, err := sch.Combine(c, []homenc.PartialDecryption{p1, p2}); err == nil {
		t.Error("combine below threshold must fail")
	}
	if _, err := sch.Combine(c, []homenc.PartialDecryption{p1, p1, p2}); err == nil {
		t.Error("duplicate shares must be rejected")
	}
}

func TestThresholdS2(t *testing.T) {
	// Threshold decryption must work for s > 1 as well.
	sch := testScheme(t, 128, 2)
	m := new(big.Int).Lsh(big.NewInt(1), 200) // needs > n bits of plaintext space
	m.Add(m, big.NewInt(99))
	c := sch.Encrypt(m)
	var parts []homenc.PartialDecryption
	for _, idx := range []int{2, 3, 5} {
		p, err := sch.PartialDecrypt(idx, c)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	got, err := sch.Combine(c, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Errorf("s=2 threshold decrypt = %v, want %v", got, m)
	}
}

// TestTestSchemesShareKeyShares pins that NewTestScheme's key material
// is fixed: separately started processes each build their own instance
// from the same parameters, and a release combines partial decryptions
// taken under both. Encryption must stay randomized all the same.
func TestTestSchemesShareKeyShares(t *testing.T) {
	for _, tc := range []struct{ keyBits, s, nShares, threshold int }{{128, 1, 2, 2}, {256, 2, 5, 3}} {
		a, err := NewTestScheme(tc.keyBits, tc.s, tc.nShares, tc.threshold)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTestScheme(tc.keyBits, tc.s, tc.nShares, tc.threshold)
		if err != nil {
			t.Fatal(err)
		}
		m := big.NewInt(123456)
		c := a.Encrypt(m)
		var parts []homenc.PartialDecryption
		for idx := 1; idx <= tc.threshold; idx++ {
			sch := a
			if idx%2 == 0 {
				sch = b
			}
			p, err := sch.PartialDecrypt(idx, c)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		for _, sch := range []*Scheme{a, b} {
			if got, err := sch.Combine(c, parts); err != nil || got.Cmp(m) != 0 {
				t.Fatalf("%+v: partials of two instances combine to %v (err %v), want %v", tc, got, err, m)
			}
		}
		if a.Encrypt(m).V.Cmp(b.Encrypt(m).V) == 0 || a.Encrypt(m).V.Cmp(a.Encrypt(m).V) == 0 {
			t.Fatalf("%+v: two encryptions of one value are identical", tc)
		}
	}
}

func TestLargePlaintextHeadroom(t *testing.T) {
	// The EESum protocol scales plaintexts by 2^exchanges; make sure a
	// realistically huge plaintext round-trips (2^400 at a 512-bit key).
	sch := testScheme(t, 512, 1)
	m := new(big.Int).Lsh(big.NewInt(1), 400)
	m.Add(m, big.NewInt(123456789))
	c := sch.Encrypt(m)
	if got := sch.Decrypt(c); got.Cmp(m) != 0 {
		t.Errorf("huge plaintext mangled: %v", got)
	}
}

func TestPowOnePlusNMatchesExp(t *testing.T) {
	// The binomial shortcut must agree with naive modular exponentiation.
	for _, s := range []int{1, 2, 3} {
		sch := testScheme(t, 128, s)
		base := new(big.Int).Add(sch.N, big.NewInt(1))
		for _, m := range []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(12345),
			new(big.Int).Sub(sch.NS, big.NewInt(1)),
		} {
			want := new(big.Int).Exp(base, m, sch.NS1)
			got := sch.powOnePlusN(m)
			if got.Cmp(want) != 0 {
				t.Errorf("s=%d m=%v: powOnePlusN = %v, Exp = %v", s, m, got, want)
			}
		}
	}
}

func TestDLogIdentity(t *testing.T) {
	sch := testScheme(t, 128, 3)
	f := func(mRaw uint64) bool {
		m := new(big.Int).Mod(new(big.Int).SetUint64(mRaw), sch.NS)
		a := sch.powOnePlusN(m)
		return sch.dLog(a).Cmp(m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCiphertextBytes(t *testing.T) {
	sch := testScheme(t, 128, 1)
	if got := sch.CiphertextBytes(); got != 32 {
		t.Errorf("128-bit key, s=1: %d bytes, want 32", got)
	}
	sch2 := testScheme(t, 128, 2)
	if got := sch2.CiphertextBytes(); got != 48 {
		t.Errorf("128-bit key, s=2: %d bytes, want 48", got)
	}
}

func TestErrors(t *testing.T) {
	sch := testScheme(t, 128, 1)
	c := sch.Encrypt(big.NewInt(1))
	if _, err := sch.PartialDecrypt(0, c); err == nil {
		t.Error("index 0 must fail")
	}
	if _, err := sch.PartialDecrypt(6, c); err == nil {
		t.Error("index beyond nShares must fail")
	}
	p, q, _ := KnownSafePrimes(64)
	if _, err := NewFromPrimes(nil, p, q, 0, 3, 2); err == nil {
		t.Error("s=0 must fail")
	}
	if _, err := NewFromPrimes(nil, p, q, 1, 2, 3); err == nil {
		t.Error("threshold > shares must fail")
	}
	if _, err := NewFromPrimes(nil, p, p, 1, 3, 2); err == nil {
		t.Error("p == q must fail")
	}
	if _, err := NewFromPrimes(nil, big.NewInt(35), q, 1, 3, 2); err == nil {
		t.Error("composite p must fail")
	}
	if _, _, err := KnownSafePrimes(99); err == nil {
		t.Error("unknown prime size must fail")
	}
}

func TestGenerateKeySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("key generation is slow")
	}
	sch, err := GenerateKey(nil, 96, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := big.NewInt(4242)
	if got := sch.Decrypt(sch.Encrypt(m)); got.Cmp(m) != 0 {
		t.Errorf("fresh-key round trip = %v, want %v", got, m)
	}
}

func TestCodecThroughScheme(t *testing.T) {
	// Fixed-point values survive an encrypt/add/decrypt cycle.
	sch := testScheme(t, 256, 1)
	codec := homenc.NewCodec(0)
	a, b := 3.25, -1.75
	ca := sch.Encrypt(codec.Encode(a))
	cb := sch.Encrypt(codec.Encode(b))
	sum := sch.Decrypt(sch.Add(ca, cb))
	got := codec.Decode(homenc.Centered(sum, sch.PlaintextSpace()), nil)
	if got != a+b {
		t.Errorf("codec through scheme: %v, want %v", got, a+b)
	}
}

func BenchmarkEncrypt512(b *testing.B) {
	sch := testScheme(b, 512, 1)
	m := big.NewInt(123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.Encrypt(m)
	}
}

func BenchmarkAdd512(b *testing.B) {
	sch := testScheme(b, 512, 1)
	c := sch.Encrypt(big.NewInt(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.Add(c, c)
	}
}

func BenchmarkThresholdDecrypt512(b *testing.B) {
	sch := testScheme(b, 512, 1)
	c := sch.Encrypt(big.NewInt(123456))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var parts []homenc.PartialDecryption
		for _, idx := range []int{1, 2, 3} {
			p, err := sch.PartialDecrypt(idx, c)
			if err != nil {
				b.Fatal(err)
			}
			parts = append(parts, p)
		}
		if _, err := sch.Combine(c, parts); err != nil {
			b.Fatal(err)
		}
	}
}
