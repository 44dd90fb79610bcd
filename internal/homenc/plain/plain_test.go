package plain

import (
	"math/big"
	"testing"

	"chiaroscuro/internal/homenc"
)

func TestBasicOps(t *testing.T) {
	s, err := New(nil, 256, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Encrypt(big.NewInt(10))
	b := s.Encrypt(big.NewInt(-3))
	sum := s.Add(a, b)
	if sum.V.Cmp(big.NewInt(7)) != 0 {
		t.Errorf("Add = %v, want 7", sum.V)
	}
	sc := s.ScalarMul(a, big.NewInt(4))
	if sc.V.Cmp(big.NewInt(40)) != 0 {
		t.Errorf("ScalarMul = %v, want 40", sc.V)
	}
	if s.CiphertextBytes() != 256 {
		t.Errorf("CiphertextBytes = %d", s.CiphertextBytes())
	}
	if s.Name() != "plain" || s.PlaintextSpace() != nil {
		t.Error("metadata wrong")
	}
}

func TestModularSpace(t *testing.T) {
	s, err := New(big.NewInt(97), 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Encrypt(big.NewInt(-1))
	if c.V.Cmp(big.NewInt(96)) != 0 {
		t.Errorf("Encrypt(-1) mod 97 = %v, want 96", c.V)
	}
	if got := homenc.Centered(c.V, s.PlaintextSpace()); got.Cmp(big.NewInt(-1)) != 0 {
		t.Errorf("Centered = %v, want -1", got)
	}
}

// TestAddPublicIsAddOfEncrypt: the stand-in's public add is the
// arithmetic of Add(a, Encrypt(m)), with and without a plaintext space,
// for negative values, zero and values at and past the space.
func TestAddPublicIsAddOfEncrypt(t *testing.T) {
	for _, space := range []*big.Int{nil, big.NewInt(97)} {
		s, err := New(space, 0, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		a := s.Encrypt(big.NewInt(40))
		for _, m := range []int64{-1, -200, 0, 96, 97, 1000} {
			got := s.AddPublic(a, big.NewInt(m))
			if want := s.Add(a, s.Encrypt(big.NewInt(m))); got.V.Cmp(want.V) != 0 {
				t.Errorf("space %v, m=%d: AddPublic = %v, Add(a, Encrypt(m)) = %v", space, m, got.V, want.V)
			}
		}
	}
}

func TestThresholdBookkeeping(t *testing.T) {
	s, err := New(nil, 0, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Encrypt(big.NewInt(42))
	var parts []homenc.PartialDecryption
	for idx := 1; idx <= 3; idx++ {
		p, err := s.PartialDecrypt(idx, c)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	got, err := s.Combine(c, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(42)) != 0 {
		t.Errorf("Combine = %v, want 42", got)
	}
	// Below threshold fails even with no real crypto: the protocol
	// invariant must hold identically in simulation.
	if _, err := s.Combine(c, parts[:2]); err == nil {
		t.Error("below-threshold combine must fail")
	}
	// Distinct shares combine in any order; a repeated or unknown one is
	// refused whether the order is ascending or not.
	if got, err := s.Combine(c, []homenc.PartialDecryption{parts[2], parts[0], parts[1]}); err != nil || got.Cmp(big.NewInt(42)) != 0 {
		t.Errorf("Combine of unordered distinct shares = %v, %v; want 42", got, err)
	}
	for _, bad := range []struct {
		name string
		idx  []int
	}{
		{"duplicate shares", []int{1, 1, 2}},
		{"duplicate shares out of order", []int{2, 1, 2}},
		{"a share index above NumShares", []int{1, 2, 6}},
		{"share index 0", []int{0, 1, 2}},
	} {
		ps := make([]homenc.PartialDecryption, len(bad.idx))
		for i, idx := range bad.idx {
			ps[i] = homenc.PartialDecryption{Index: idx, V: c.V}
		}
		if _, err := s.Combine(c, ps); err == nil {
			t.Errorf("%s %v must fail", bad.name, bad.idx)
		}
	}
	if _, err := s.PartialDecrypt(9, c); err == nil {
		t.Error("out-of-range index must fail")
	}
	if _, err := New(nil, 0, 2, 3); err == nil {
		t.Error("threshold > shares must fail")
	}
}

func TestImmutability(t *testing.T) {
	s, _ := New(nil, 0, 2, 1)
	m := big.NewInt(5)
	c := s.Encrypt(m)
	m.SetInt64(99) // mutating the input must not affect the ciphertext
	if c.V.Cmp(big.NewInt(5)) != 0 {
		t.Error("Encrypt aliased its input")
	}
	a := s.Encrypt(big.NewInt(1))
	_ = s.Add(a, a)
	if a.V.Cmp(big.NewInt(1)) != 0 {
		t.Error("Add mutated an operand")
	}
}

// TestDecryptionAllocs pins the plain decryption's garbage: a partial
// decryption is the ciphertext's own value, so applying a key-share
// allocates nothing, and combining ascending shares allocates only the
// plaintext it returns.
func TestDecryptionAllocs(t *testing.T) {
	s, err := New(nil, 0, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Encrypt(new(big.Int).Lsh(big.NewInt(12345), 200))
	parts := make([]homenc.PartialDecryption, 3)
	if got := testing.AllocsPerRun(100, func() {
		for i := range parts {
			parts[i], _ = s.PartialDecrypt(i+1, c)
		}
	}); got != 0 {
		t.Errorf("three partial decryptions allocated %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = s.Combine(c, parts) }); got > 2 {
		t.Errorf("a combine allocated %v times, want at most 2: the plaintext and its words", got)
	}
}
