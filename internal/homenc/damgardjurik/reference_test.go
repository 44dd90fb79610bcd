package damgardjurik

import (
	"errors"
	"fmt"
	"math/big"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/shamir"
)

// The formulas the scheme's kernels replaced, kept to test the kernels
// against: each partial decryption raised to its own 2μ_i, every
// negative coefficient paid with an inversion.

// invNS1 computes base^(-1) mod n^(s+1) on the two half-width moduli.
func (s *Scheme) invNS1(base *big.Int) *big.Int {
	c := s.crt
	if c == nil {
		return new(big.Int).ModInverse(base, s.NS1)
	}
	xp := new(big.Int).ModInverse(new(big.Int).Mod(base, c.ps1), c.ps1)
	xq := new(big.Int).ModInverse(new(big.Int).Mod(base, c.qs1), c.qs1)
	if xp == nil || xq == nil {
		return nil
	}
	var prod, quo big.Int
	return c.combine(xp, &prod, &quo, xp, xq)
}

// combineReference is Combine one base at a time.
func (s *Scheme) combineReference(parts []homenc.PartialDecryption) (*big.Int, error) {
	xs := make([]int, 0, len(parts))
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		if p.Index < 1 || p.Index > s.nShares {
			return nil, fmt.Errorf("damgardjurik: key-share index %d out of range", p.Index)
		}
		if seen[p.Index] {
			return nil, fmt.Errorf("damgardjurik: duplicate key-share %d", p.Index)
		}
		seen[p.Index] = true
		xs = append(xs, p.Index)
	}
	if len(xs) < s.threshold {
		return nil, errors.New("damgardjurik: not enough distinct key-shares")
	}
	acc := big.NewInt(1)
	for _, p := range parts {
		mu, err := shamir.Lambda0(xs, p.Index, s.nShares)
		if err != nil {
			return nil, err
		}
		e := new(big.Int).Lsh(mu, 1) // 2μ_i, possibly negative
		base := p.V
		if e.Sign() < 0 {
			base = s.invNS1(p.V)
			if base == nil {
				return nil, errors.New("damgardjurik: partial decryption not invertible")
			}
			e.Neg(e)
		}
		acc.Mul(acc, s.expNS1(base, e))
		acc.Mod(acc, s.NS1)
	}
	m := s.dLog(acc)
	m.Mul(m, s.combInv)
	return m.Mod(m, s.NS), nil
}
