package eesum

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/plain"
)

// TestExchangeConservesLogicalMassQuick is the Appendix C.2.1 correctness
// argument as a property test: for ANY sequence of full exchanges between
// any pairs, the sum over nodes of dec_i / 2^epoch_i (the logical mass)
// is invariant — the deferred-division update rule is arithmetically
// equivalent to push-pull halving.
func TestExchangeConservesLogicalMassQuick(t *testing.T) {
	codec := homenc.NewCodec(16)
	f := func(vals [6]int16, pairs [12]uint8) bool {
		sch, err := plain.New(nil, 0, len(vals), 1)
		if err != nil {
			return false
		}
		initial := make([][]*big.Int, len(vals))
		var want float64
		for i, v := range vals {
			x := float64(v) / 8
			want += x
			initial[i] = []*big.Int{codec.Encode(x)}
		}
		ps := sumsOf(testEnv(sch, codec, 1), initial)
		for _, p := range pairs {
			a := int(p) % len(vals)
			b := int(p>>3) % len(vals)
			if a == b {
				continue
			}
			ps[a].ExchangeSum(ps[b], true)
		}
		var mass float64
		for _, p := range ps {
			mass += logical(codec, p.Means.SumState)
		}
		return math.Abs(mass-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWeightMassConservedQuick: the cleartext integer weights carry the
// same invariant — Σ ω_i / 2^epoch_i stays exactly 1.
func TestWeightMassConservedQuick(t *testing.T) {
	f := func(pairs [16]uint8) bool {
		const n = 5
		sch, err := plain.New(nil, 0, n, 1)
		if err != nil {
			return false
		}
		initial := make([][]*big.Int, n)
		for i := range initial {
			initial[i] = []*big.Int{big.NewInt(1)}
		}
		ps := sumsOf(testEnv(sch, homenc.NewCodec(0), 1), initial)
		for _, p := range pairs {
			a := int(p) % n
			b := int(p>>4) % n
			if a == b {
				continue
			}
			ps[a].ExchangeSum(ps[b], true)
		}
		var mass float64
		for _, p := range ps {
			w, _ := new(big.Float).SetInt(p.Means.Omega).Float64()
			mass += w / math.Pow(2, float64(p.Means.Epoch))
		}
		return math.Abs(mass-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
