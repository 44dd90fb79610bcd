// Fixture for the bigintalias analyzer: homenc is a shared-big.Int
// package, so in-place mutation of big values held in (or published to)
// shared state is flagged; fresh function-local accumulators are not.
package homenc

import "math/big"

type Ciphertext struct {
	C *big.Int
}

func mutateField(ct Ciphertext, x *big.Int) {
	ct.C.Add(ct.C, x) // want `Add mutates a big value held in shared struct/element state in place`
}

func mutateElement(cs []*big.Int, x *big.Int) {
	cs[0].Mul(cs[0], x) // want `Mul mutates a big value held in shared struct/element state in place`
}

func mutateAfterAppend(cs []*big.Int, x *big.Int) []*big.Int {
	v := new(big.Int).Set(x)
	cs = append(cs, v)
	v.Add(v, big.NewInt(1)) // want `Add mutates v in place after it was stored into shared state`
	return cs
}

func mutateAfterCompositeLit(x *big.Int) Ciphertext {
	v := new(big.Int).Set(x)
	ct := Ciphertext{C: v}
	v.SetInt64(3) // want `SetInt64 mutates v in place after it was stored into shared state`
	return ct
}

func mutateAfterFieldStore(ct *Ciphertext, x *big.Int) {
	v := new(big.Int).Set(x)
	ct.C = v
	v.Lsh(v, 1) // want `Lsh mutates v in place after it was stored into shared state`
}

func freshAccumulatorIsFine(xs []*big.Int) *big.Int {
	acc := new(big.Int)
	for _, x := range xs {
		acc.Add(acc, x)
	}
	return acc
}

func mutateBeforeStoreIsFine(x *big.Int) Ciphertext {
	v := new(big.Int).Set(x)
	v.Add(v, big.NewInt(1)) // still private here: the store happens below
	return Ciphertext{C: v}
}

func readOnlyUseIsFine(ct Ciphertext) *big.Int {
	return new(big.Int).Add(ct.C, big.NewInt(1))
}

func annotatedOwnership(cs []*big.Int) {
	v := new(big.Int)
	cs = append(cs, v)
	v.Add(v, big.NewInt(2)) //lint:inplace v was freshly allocated above and cs never leaves this function
	_ = cs
}

// The slab idiom of the vector kernels: carve a value out of a shared
// backing array, compute into it through a local, publish it last.

func carve(ints []big.Int, i int) *big.Int { return &ints[i] }

func carveComputePublishIsFine(a, b []*big.Int) []Ciphertext {
	ints := make([]big.Int, len(a))
	out := make([]Ciphertext, len(a))
	for i := range a {
		z := carve(ints, i)
		z.Lsh(a[i], 3)
		z.Add(z, b[i]) // still private: only this loop body has seen z
		out[i].C = z
	}
	return out
}

func mutateSlabElementAfterPublish(a, b []*big.Int) []Ciphertext {
	ints := make([]big.Int, len(a))
	out := make([]Ciphertext, len(a))
	for i := range a {
		z := carve(ints, i)
		z.Lsh(a[i], 3)
		out[i].C = z
		z.Add(z, b[i]) // want `Add mutates z in place after it was stored into shared state`
	}
	return out
}

func mutateSlabElementDirectly(ints []big.Int, out []Ciphertext, x *big.Int) {
	out[0].C = &ints[0]
	ints[0].Add(&ints[0], x) // want `Add mutates a big value held in shared struct/element state in place`
}
