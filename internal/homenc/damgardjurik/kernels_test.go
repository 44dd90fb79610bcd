package damgardjurik

import (
	"bytes"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/shamir"
)

// thresholdScheme builds a 12-share key at 128 bits (at threshold 4,
// the shape of the benchmark's sim-dj at a test-sized modulus), on the
// CRT path or, with the factorization dropped, on the full-modulus path
// a participant holding only n takes.
func thresholdScheme(t testing.TB, s, threshold int, crt bool) *Scheme {
	t.Helper()
	sch, err := NewTestScheme(128, s, 12, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if !crt {
		sch.crt = nil
	}
	return sch
}

// subsets returns every k-subset of {1..n} in ascending order.
func subsets(n, k int) [][]int {
	var out [][]int
	var walk func(from int, cur []int)
	walk = func(from int, cur []int) {
		if len(cur) == k {
			out = append(out, slices.Clone(cur))
			return
		}
		for x := from; x <= n; x++ {
			walk(x+1, append(cur, x))
		}
	}
	walk(1, nil)
	return out
}

// TestCombineMatchesReference: the multi-exponentiation Combine, with
// its cached share set, recovers what the per-base formula it replaced
// and Decrypt recover, for every τ- and (τ+1)-subset of a 12-share key,
// in ascending and in reversed order, at s = 1, 2, 3, on both paths.
// The coefficients alternate in sign along the sorted set, so τ = 4
// gives sets with two negative ones, and τ = 1 single shares, whose one
// coefficient is positive.
func TestCombineMatchesReference(t *testing.T) {
	setsOf := func(threshold int) [][]int {
		return append(subsets(12, threshold), subsets(12, threshold+1)...)
	}
	allPositive, severalNegative := 0, 0
	for _, xs := range append(setsOf(1), setsOf(4)...) {
		neg := 0
		for _, x := range xs {
			mu, err := shamir.Lambda0(xs, x, 12)
			if err != nil {
				t.Fatal(err)
			}
			if mu.Sign() < 0 {
				neg++
			}
		}
		if neg == 0 {
			allPositive++
		}
		if neg >= 2 {
			severalNegative++
		}
	}
	if allPositive == 0 || severalNegative == 0 {
		t.Fatalf("subsets cover %d all-positive and %d several-negative coefficient sets, want both", allPositive, severalNegative)
	}
	for _, tc := range []struct{ s, threshold int }{{1, 4}, {2, 4}, {3, 4}, {1, 1}, {2, 1}} {
		s := tc.s
		for _, crt := range []bool{true, false} {
			sch := thresholdScheme(t, s, tc.threshold, crt)
			m := new(big.Int).Lsh(big.NewInt(int64(1000+s)), uint(40*s))
			c := sch.Encrypt(m)
			if got := sch.Decrypt(c); got.Cmp(m) != 0 {
				t.Fatalf("s=%d crt=%v: Decrypt = %v, want %v", s, crt, got, m)
			}
			all := make([]homenc.PartialDecryption, 12)
			for i := range all {
				p, err := sch.PartialDecrypt(i+1, c)
				if err != nil {
					t.Fatal(err)
				}
				all[i] = p
			}
			for _, xs := range setsOf(tc.threshold) {
				parts := make([]homenc.PartialDecryption, len(xs))
				for i, x := range xs {
					parts[i] = all[x-1]
				}
				reversed := slices.Clone(parts)
				slices.Reverse(reversed)
				for _, order := range [][]homenc.PartialDecryption{parts, reversed} {
					want, err := sch.combineReference(order)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sch.Combine(c, order)
					if err != nil {
						t.Fatalf("s=%d crt=%v set %v: %v", s, crt, xs, err)
					}
					if got.Cmp(want) != 0 || got.Cmp(m) != 0 {
						t.Fatalf("s=%d crt=%v set %v: Combine = %v, reference %v, Decrypt %v", s, crt, xs, got, want, m)
					}
				}
			}
		}
	}
}

// TestCombineShareSetsConcurrently: goroutines combining over different
// share sets at once replace each other's cached set; each must still
// get its own coefficients (run under -race).
func TestCombineShareSetsConcurrently(t *testing.T) {
	sch := thresholdScheme(t, 1, 4, true)
	m := big.NewInt(271828)
	c := sch.Encrypt(m)
	sets := [][]int{{1, 2, 3, 4}, {9, 10, 11, 12}, {4, 3, 2, 1}, {2, 5, 7, 11, 12}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				xs := sets[(g+round)%len(sets)]
				parts := make([]homenc.PartialDecryption, len(xs))
				for i, x := range xs {
					p, err := sch.PartialDecrypt(x, c)
					if err != nil {
						t.Error(err)
						return
					}
					parts[i] = p
				}
				if got, err := sch.Combine(c, parts); err != nil || got.Cmp(m) != 0 {
					t.Errorf("set %v: Combine = %v, %v; want %v", xs, got, err, m)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCombineRejectsAfterCaching: a cached share set must not let a bad
// one through.
func TestCombineRejectsAfterCaching(t *testing.T) {
	sch := thresholdScheme(t, 1, 4, true)
	c := sch.Encrypt(big.NewInt(5))
	parts := make([]homenc.PartialDecryption, 5)
	for i := range parts {
		p, err := sch.PartialDecrypt(i+1, c)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	if _, err := sch.Combine(c, parts[:4]); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]homenc.PartialDecryption{
		"duplicate":    {parts[0], parts[1], parts[2], parts[0]},
		"too few":      parts[:3],
		"out of range": {parts[0], parts[1], parts[2], {Index: 13, V: parts[3].V}},
	} {
		if _, err := sch.Combine(c, bad); err == nil {
			t.Errorf("%s: Combine accepted it", name)
		}
	}
}

// TestPartialDecryptMatchesExp: each share's partial decryption, from
// exponents reduced at key construction, is c^(2Δ·s_i) mod n^(s+1) —
// and the exponents are 2Δ times Shamir shares of the key d.
func TestPartialDecryptMatchesExp(t *testing.T) {
	p, q, err := KnownSafePrimes(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 3} {
		for _, crt := range []bool{true, false} {
			sch := thresholdScheme(t, s, 4, crt)
			shareMod := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1)
			shareMod.Mul(shareMod, new(big.Int).Rsh(new(big.Int).Sub(q, one), 1))
			shareMod.Mul(shareMod, sch.NS)
			twoDelta := new(big.Int).Lsh(shamir.Delta(12), 1)
			shares := make([]shamir.Share, 0, 4)
			c := sch.Encrypt(big.NewInt(31337))
			for i := 1; i <= 12; i++ {
				e := sch.decExp[i-1]
				y, r := new(big.Int).QuoRem(e, twoDelta, new(big.Int))
				if r.Sign() != 0 {
					t.Fatalf("s=%d: share %d's exponent is not a multiple of 2Δ", s, i)
				}
				if len(shares) < 4 {
					shares = append(shares, shamir.Share{X: i, Y: y})
				}
				got, err := sch.PartialDecrypt(i, c)
				if err != nil {
					t.Fatal(err)
				}
				if want := new(big.Int).Exp(c.V, e, sch.NS1); got.V.Cmp(want) != 0 || got.Index != i {
					t.Fatalf("s=%d crt=%v share %d: PartialDecrypt = %v, want %v", s, crt, i, got.V, want)
				}
			}
			d, err := shamir.Reconstruct(shares, shareMod, 12)
			if err != nil {
				t.Fatal(err)
			}
			if new(big.Int).Mod(d, sch.NS).Cmp(one) != 0 || new(big.Int).Mod(d, new(big.Int).Quo(shareMod, sch.NS)).Sign() != 0 {
				t.Fatalf("s=%d: the shares reconstruct %v, not d (≡ 1 mod n^s, ≡ 0 mod p'q')", s, d)
			}
		}
	}
}

// TestMergeVecShiftMatchesScalarMul: the merge's squaring chain (shifts
// below crtDirectExpBits) and its exponentiation (from there on) write
// the image Add(ScalarMul(a, 2^shift), b) writes, byte for byte — also
// into a vector every earlier merge wrote, serially and in chunks.
func TestMergeVecShiftMatchesScalarMul(t *testing.T) {
	for _, s := range []int{1, 2} {
		sch := testScheme(t, 128, s)
		a := make([]homenc.Ciphertext, 6)
		b := make([]homenc.Ciphertext, len(a))
		for i := range a {
			a[i] = sch.Encrypt(big.NewInt(int64(i*i - 7)))
			b[i] = sch.Encrypt(big.NewInt(int64(3 * i)))
		}
		a[0].V = big.NewInt(2) // a short element: narrower than the modulus
		// One vector every merge rewrites, as a participant's spare.
		merged := new(homenc.Vector)
		for shift := uint(0); shift <= 40; shift++ {
			k := new(big.Int).Lsh(one, shift)
			want := make([]homenc.Ciphertext, len(a))
			for i := range want {
				want[i] = sch.Add(sch.ScalarMul(a[i], k), b[i])
			}
			wantImg, err := homenc.MarshalVector(want)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				sch.MergeVec(merged, homenc.NewVector(a).Operand(), shift, homenc.NewVector(b).Operand(), workers)
				got := merged.AppendTo(nil)
				if !bytes.Equal(got, wantImg) {
					t.Fatalf("s=%d shift %d, %d workers: image %x, want %x", s, shift, workers, got, wantImg)
				}
			}
		}
	}
}

// fullWidth returns a deterministic residue of n^(s+1) as wide as the
// modulus: an operand built without Encrypt, which would wake the
// background randomizer filler whose allocations land in the count.
func fullWidth(sch *Scheme, seed int64) *big.Int {
	v := big.NewInt(seed)
	for v.BitLen() < sch.NS1.BitLen()+64 {
		v.Mul(v, big.NewInt(6364136223846793005)).Add(v, big.NewInt(1442695040888963407))
	}
	return v.Mod(v, sch.NS1)
}

// TestCombTableExpAllocs: the comb allocates per call, not per digit —
// an exponent of three non-zero digits (the second product already
// grows the scratch to full width) and a full-width one cost the same
// allocations, and none at all once the result and scratch have grown.
func TestCombTableExpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("math/big's pools drop entries under the race detector")
	}
	p, _, err := KnownSafePrimes(512)
	if err != nil {
		t.Fatal(err)
	}
	ps1 := new(big.Int).Mul(p, p)
	ord := new(big.Int).Sub(p, one)
	tab := newCombTable(generatorH(nil, p, p, ps1), ps1, ord.BitLen())
	short, full := big.NewInt(0x10101), new(big.Int).Sub(ord, big.NewInt(12345))
	fresh := func(e *big.Int) float64 {
		return testing.AllocsPerRun(50, func() { tab.exp(new(big.Int), new(big.Int), new(big.Int), e) })
	}
	if s, f := fresh(short), fresh(full); f > s {
		t.Errorf("comb with fresh scratch: %.0f allocations at %d digits, %.0f at 3", f, (full.BitLen()+3)/4, s)
	}
	var z, prod, quo big.Int
	if got := testing.AllocsPerRun(50, func() { tab.exp(&z, &prod, &quo, full) }); got != 0 {
		t.Errorf("comb through grown scratch: %.0f allocations, want 0", got)
	}
}

// maxCombineBytes bounds one Combine at 12 shares and τ = 4 on the
// paper's 1024-bit key: the reduced bases, the two accumulators, one
// inversion per modulus, the recombination and the discrete log (about
// 8.5 KB; the per-base formula took 42 KB).
const maxCombineBytes = 16 << 10

func TestCombineBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("math/big's pools drop entries under the race detector")
	}
	sch, err := NewTestScheme(1024, 1, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := homenc.Ciphertext{V: fullWidth(sch, 7)}
	parts := make([]homenc.PartialDecryption, 4)
	for i := range parts {
		if parts[i], err = sch.PartialDecrypt(i+1, c); err != nil {
			t.Fatal(err)
		}
	}
	combine := func() {
		if _, err := sch.Combine(c, parts); err != nil {
			t.Fatal(err)
		}
	}
	combine() // caches the share set
	var before, after runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		combine()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > maxCombineBytes {
		t.Errorf("Combine at 12 shares: %d bytes per call, want at most %d", got, maxCombineBytes)
	}
}
