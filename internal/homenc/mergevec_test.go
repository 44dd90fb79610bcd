package homenc_test

import (
	"fmt"
	"math/big"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/randx"
)

// mergeCase is one scheme under the MergeVec differential tests, with a
// generator of operands as ragged as the scheme admits.
type mergeCase struct {
	name    string
	sch     homenc.Scheme
	operand func(rng *randx.RNG) *big.Int
}

// raggedInt draws a value of 0 to maxWords words, negative half the
// time when signed.
func raggedInt(rng *randx.RNG, maxWords int, signed bool) *big.Int {
	v := new(big.Int)
	for w := rng.IntN(maxWords + 1); w > 0; w-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(rng.Uint64()))
	}
	if signed && rng.IntN(2) == 0 {
		v.Neg(v)
	}
	return v
}

func mergeCases(t *testing.T) []mergeCase {
	t.Helper()
	unbounded, err := plain.New(nil, 64, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := new(big.Int).Lsh(big.NewInt(1), 130)
	space.Sub(space, big.NewInt(5))
	bounded, err := plain.New(space, 64, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []mergeCase{
		{"plain/unbounded", unbounded, func(rng *randx.RNG) *big.Int { return raggedInt(rng, 4, true) }},
		// Operands above the space and below zero: what a peer may send.
		{"plain/bounded", bounded, func(rng *randx.RNG) *big.Int { return raggedInt(rng, 4, true) }},
	}
	for _, s := range []int{1, 2} {
		dj, err := damgardjurik.NewTestScheme(128, s, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, mergeCase{fmt.Sprintf("damgardjurik/s=%d", s), dj, func(rng *randx.RNG) *big.Int {
			if rng.IntN(3) == 0 {
				// A short group element: narrower than the modulus.
				return new(big.Int).SetUint64(rng.Uint64() | 1)
			}
			return dj.Encrypt(raggedInt(rng, 2, true)).V
		}})
	}
	return cases
}

func drawVector(c mergeCase, rng *randx.RNG, n int) []homenc.Ciphertext {
	out := make([]homenc.Ciphertext, n)
	for i := range out {
		out[i].V = c.operand(rng)
	}
	return out
}

func snapshot(cts []homenc.Ciphertext) []*big.Int {
	out := make([]*big.Int, len(cts))
	for i, c := range cts {
		out[i] = new(big.Int).Set(c.V)
	}
	return out
}

func requireUnchanged(t *testing.T, what string, cts []homenc.Ciphertext, want []*big.Int) {
	t.Helper()
	for i, c := range cts {
		if c.V.Cmp(want[i]) != 0 {
			t.Fatalf("%s[%d] changed: %v, was %v", what, i, c.V, want[i])
		}
	}
}

// mergeShifts cross damgardjurik's crtDirectExpBits: 2^31 is a 32-bit
// exponent (direct), 2^32 and 2^40 take the CRT split.
var mergeShifts = []uint{0, 1, 31, 32, 40}

// TestMergeVecMatchesElementwise: the kernel is Add(ScalarMul(a, 2^shift), b)
// element-wise, to the bit, and leaves its inputs alone.
func TestMergeVecMatchesElementwise(t *testing.T) {
	for _, c := range mergeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			rng := randx.New(19, 1)
			for _, shift := range mergeShifts {
				for _, n := range []int{0, 1, 9} {
					a, b := drawVector(c, rng, n), drawVector(c, rng, n)
					wasA, wasB := snapshot(a), snapshot(b)
					got := c.sch.MergeVec(a, shift, b)
					if len(got) != n {
						t.Fatalf("shift %d: %d results for %d elements", shift, len(got), n)
					}
					k := new(big.Int).Lsh(big.NewInt(1), shift)
					for i := range got {
						want := c.sch.Add(c.sch.ScalarMul(a[i], k), b[i])
						if got[i].V.Cmp(want.V) != 0 {
							t.Fatalf("shift %d element %d: MergeVec = %v, Add(ScalarMul) = %v", shift, i, got[i].V, want.V)
						}
					}
					requireUnchanged(t, "a", a, wasA)
					requireUnchanged(t, "b", b, wasB)
				}
			}
		})
	}
}

// TestPlainMergeVecStaysInItsSlab: the plain kernel sizes every window
// so that the arithmetic never outgrows it — a merge is the result
// slice and the two slabs whatever the operand widths, signs and shift.
func TestPlainMergeVecStaysInItsSlab(t *testing.T) {
	c := mergeCases(t)[0]
	rng := randx.New(37, 1)
	for _, shift := range []uint{0, 1, 31, 32, 40, 63, 64, 65, 200} {
		a, b := drawVector(c, rng, 40), drawVector(c, rng, 40)
		if got := testing.AllocsPerRun(10, func() { c.sch.MergeVec(a, shift, b) }); got > 3 {
			t.Errorf("shift %d: %.0f allocations, want the result slice and two slabs", shift, got)
		}
	}
}

// TestMergeVecWindowsAreIsolated: the results share one slab, but each
// owns a capacity-clipped window of it — growing one in place far past
// its window moves it away instead of overwriting its neighbours.
func TestMergeVecWindowsAreIsolated(t *testing.T) {
	for _, c := range mergeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			rng := randx.New(23, 1)
			for _, shift := range []uint{0, 40} {
				a, b := drawVector(c, rng, 7), drawVector(c, rng, 7)
				wasA, wasB := snapshot(a), snapshot(b)
				got := c.sch.MergeVec(a, shift, b)
				for i := range got {
					was := snapshot(got)
					got[i].V.Lsh(got[i].V, 4096)
					was[i].Lsh(was[i], 4096)
					requireUnchanged(t, fmt.Sprintf("results after growing %d", i), got, was)
				}
				requireUnchanged(t, "a", a, wasA)
				requireUnchanged(t, "b", b, wasB)
			}
		})
	}
}

func TestMergeVecRejectsLengthMismatch(t *testing.T) {
	for _, c := range mergeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("MergeVec accepted vectors of different lengths")
				}
			}()
			rng := randx.New(29, 1)
			c.sch.MergeVec(drawVector(c, rng, 3), 1, drawVector(c, rng, 2))
		})
	}
}
