package eesum

import (
	"maps"
	"math/big"
	"slices"

	"chiaroscuro/internal/homenc"
)

// The adapters below exist for the benchmark module's layer probes
// (benchmark/probes.go), whose source is frozen with the benchmark: they
// run the participant's own kernels on states and vectors in value form,
// encoding their inputs into images at their edge. The protocol calls
// the kernels on images.

// MergeSum is mergeSum over states in value form: they are encoded into
// images first, and the result is decoded back into values. It adapts
// the one kernel to callers that hold values — today only the
// benchmark's layer probe; the protocol merges SumOperands.
func MergeSum(sch homenc.Scheme, a, b SumState, workers int) SumState {
	op := func(st SumState) SumOperand {
		return SumOperand{CTs: homenc.NewVector(st.CTs).Operand(), Omega: st.Omega, Epoch: st.Epoch}
	}
	return mergeSum(sch, op(a), op(b), workers).State()
}

// DecPartials computes key-share idx's partial decryption of every
// element of cts — the unit of work one participant contributes to a
// peer's (or its own) decryption state. It is partials over cts encoded,
// the partial decryptions decoded back into values.
func DecPartials(sch homenc.Scheme, idx int, cts []homenc.Ciphertext, workers int) ([]homenc.PartialDecryption, error) {
	v, err := partials(sch, idx, homenc.NewVector(cts).Operand(), workers)
	if err != nil {
		return nil, err
	}
	ps := make([]homenc.PartialDecryption, len(cts))
	for j, c := range v.CopyValues() {
		ps[j] = homenc.PartialDecryption{Index: idx, V: c.V}
	}
	return ps, nil
}

// CombineParts combines τ gathered partial-decryption vectors into the
// plaintext vector of cts. parts maps share index to per-element
// partials; threshold distinct shares must be present. It is combine
// over cts and the partials encoded.
func CombineParts(sch homenc.Scheme, cts []homenc.Ciphertext, parts map[int][]homenc.PartialDecryption, threshold, workers int) ([]*big.Int, error) {
	if len(parts) < threshold {
		return nil, errIncomplete
	}
	shares := slices.Sorted(maps.Keys(parts))[:threshold]
	ops := make([]homenc.Operand, threshold)
	for k, idx := range shares {
		vals := make([]homenc.Ciphertext, len(parts[idx]))
		for j, p := range parts[idx] {
			vals[j].V = p.V
		}
		ops[k] = homenc.NewVector(vals).Operand()
	}
	return combine(sch, homenc.NewVector(cts).Operand(), shares, ops, workers)
}
