// Transport-agnostic exchange transitions: the state updates of the
// encrypted epidemic protocols (Algorithm 2 sum merge, Section 4.2.3
// partial decryption and combination, Section 4.2.2 noise streams)
// expressed over portable per-participant states, with no reference to
// the simulation engine. Participant is built from these functions.

package eesum

import (
	"errors"
	"maps"
	"math/big"
	"slices"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/parallel"
	"chiaroscuro/internal/randx"
)

// SumState is an EESum state in value form: the encrypted vector, the
// integer epidemic weight, and the deferred-division epoch. Its logical
// value is CTs / (Omega · 2^FracBits); the 2^Epoch scaling is common to
// numerator and weight and cancels at decode time. A participant keeps
// its states as SumSides, whose vectors are images; the value form
// exists only at the edge of the adapters below, for callers that hold
// values already.
type SumState struct {
	CTs   []homenc.Ciphertext
	Omega *big.Int
	Epoch int
}

// SumOperand is an EESum state as the update rule reads it: its
// ciphertext vector in whichever form it has (SumSide.Operand for a
// state at rest, wireproto's scanned view for a peer's state still in
// its frame), its weight and its epoch.
type SumOperand struct {
	CTs   homenc.Operand
	Omega *big.Int
	Epoch int
}

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

// mergeSum is mergeSumInto a vector of its own.
func mergeSum(sch homenc.Scheme, a, b SumOperand, workers int) SumSide {
	return mergeSumInto(sch, new(homenc.Vector), a, b, workers)
}

// mergeSumInto is the local update rule of Algorithm 2 as a function of
// the two exchanging sides' states: the staler side is rescaled to the
// fresher epoch (ciphertext exponentiation, weight shift), the vectors
// are added homomorphically, the weights added, and the epoch advanced.
// The operands are only read, and the result's vector is written into
// dst, as an image: dst must be neither operand's. Both sides of a full
// exchange adopt the result.
func mergeSumInto(sch homenc.Scheme, dst *homenc.Vector, a, b SumOperand, workers int) SumSide {
	stale, fresh := a, b
	if b.Epoch < a.Epoch {
		stale, fresh = b, a
	}
	shift := uint(fresh.Epoch - stale.Epoch)
	omega := new(big.Int).Lsh(stale.Omega, shift)
	sch.MergeVec(dst, stale.CTs, shift, fresh.CTs, workers)
	return SumSide{CTs: dst, Omega: omega.Add(omega, fresh.Omega), Epoch: fresh.Epoch + 1}
}

// AddEncryptedState returns st with v_j · st.Omega added homomorphically
// to its element j — the "encrypted perturbation" of Algorithm 3 line 7
// shape, shifting the decoded estimate by exactly v. st is only read:
// each sum goes from the scheme straight into the result's own image,
// the elements fanned out over at most workers chunks. v is public (the
// correction's effect is what the released vector shows), so it is
// added with AddPublic: no fresh randomizer would hide anything.
func AddEncryptedState(sch homenc.Scheme, st SumOperand, v []*big.Int, workers int) (SumSide, error) {
	if len(v) != st.CTs.Len() {
		return SumSide{}, errors.New("eesum: dimension mismatch")
	}
	cts, err := mapImage(st.CTs, workers, func(w *homenc.VectorWriter, lo int, cts homenc.Operand) error {
		var x, m big.Int
		r := cts.Reader()
		for _, vj := range v[lo : lo+cts.Len()] {
			w.Append(sch.AddPublic(homenc.Ciphertext{V: r.Next(&x)}, m.Mul(vj, st.Omega)).V)
		}
		return nil
	})
	return SumSide{CTs: cts, Omega: st.Omega, Epoch: st.Epoch}, err
}

// PerturbState adds the noise state's ciphertexts element-wise into the
// means state (Algorithm 3 line 7: M.s = M.s +h N.s) and returns the
// perturbed means. Both states must have run in lockstep on the same
// exchanges, so their weights and epochs agree and the ciphertexts add
// directly.
func PerturbState(sch homenc.Scheme, means, noise SumOperand) (SumSide, error) {
	if means.CTs.Len() != noise.CTs.Len() {
		return SumSide{}, errors.New("eesum: dimension mismatch between means and noise")
	}
	if means.Omega.Cmp(noise.Omega) != 0 || means.Epoch != noise.Epoch {
		return SumSide{}, errors.New("eesum: means and noise states not in lockstep")
	}
	perturbed := new(homenc.Vector)
	sch.MergeVec(perturbed, means.CTs, 0, noise.CTs, 1)
	return SumSide{CTs: perturbed, Omega: means.Omega, Epoch: means.Epoch}, nil
}

// DecodePackedState decodes the decrypted plaintexts of a (possibly
// packed) SumState: they are centered into the plaintext space, split
// into their dim slot values, and each slot decoded with the weight.
// With pc.Slots == 1 the plaintexts are the dim values themselves.
func DecodePackedState(sch homenc.Scheme, pc homenc.PackedCodec, ms []*big.Int, omega *big.Int, dim int) ([]float64, error) {
	if omega == nil || omega.Sign() == 0 {
		return nil, errors.New("eesum: zero weight; estimate undefined")
	}
	centered := make([]*big.Int, len(ms))
	for j, m := range ms {
		centered[j] = homenc.Centered(m, sch.PlaintextSpace())
	}
	slots, err := pc.Unpack(centered, dim)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(slots))
	pc.Codec.DecodeVec(out, slots, omega)
	return out, nil
}

// DimWorkers gates a per-dimension worker count: vectors too short to
// amortize the fan-out run serial.
func DimWorkers(dim, workers int) int {
	if dim < minParallelDim || workers < 1 {
		return 1
	}
	return workers
}

// --- Epidemic decryption transitions (Section 4.2.3) ---
//
// The decryption reads its vectors where they are — a participant's
// elected vector and gathered parts are images — element by element
// (homenc.OperandReader), decoding each element into scratch the kernel
// reuses. DecPartials and CombineParts adapt the kernels to callers that
// hold values, encoding them into images first.

// errIncomplete: fewer than τ key-shares were gathered.
var errIncomplete = errors.New("eesum: decryption incomplete")

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

// partials applies key-share idx to every element of cts and returns the
// partial decryptions as the image they are sent and journaled as: each
// goes from the scheme straight into it.
func partials(sch homenc.Scheme, idx int, cts homenc.Operand, workers int) (*homenc.Vector, error) {
	return mapImage(cts, workers, func(w *homenc.VectorWriter, _ int, cts homenc.Operand) error {
		var x big.Int
		r := cts.Reader()
		for i := 0; i < cts.Len(); i++ {
			p, err := sch.PartialDecrypt(idx, homenc.Ciphertext{V: r.Next(&x)})
			if err != nil {
				return err
			}
			w.Append(p.V)
		}
		return nil
	})
}

// mapImage returns the image of a vector computed element by element
// from cts: the elements fan out over at most workers contiguous chunks,
// and fill appends the results for one chunk — the elements of cts from
// index lo on — to its own region of the one image, as the Damgård–Jurik
// merge does.
func mapImage(cts homenc.Operand, workers int, fill func(w *homenc.VectorWriter, lo int, cts homenc.Operand) error) (*homenc.Vector, error) {
	n := cts.Len()
	chunks := max(1, min(workers, n))
	w := homenc.NewVectorWriter(n, groupBytes(cts))
	ops := make([]homenc.Operand, chunks)
	parts := make([]homenc.VectorWriter, chunks)
	for c := range parts {
		ops[c] = cts.Slice(c*n/chunks, (c+1)*n/chunks)
		parts[c] = w.Chunk(ops[c].Len(), groupBytes(ops[c]))
	}
	errs := make([]error, chunks)
	parallel.ForEach(chunks, chunks, func(c int) { errs[c] = fill(&parts[c], c*n/chunks, ops[c]) })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	w.Join(parts)
	return w.Vector(), nil
}

// groupBytes bounds the magnitude bytes of a vector whose elements are,
// each, an element of the group of the ciphertext of cts it is computed
// from — a partial decryption, or a ciphertext a public value was added
// to: as wide as the ciphertext give or take a leading byte. A writer
// that still runs short grows.
func groupBytes(cts homenc.Operand) int {
	size, r := 0, cts.Reader()
	for i := 0; i < cts.Len(); i++ {
		size += (r.NextBits()+7)/8 + 1
	}
	return size
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

// combine decrypts every element of cts from the partial decryptions
// parts[k] of key-share shares[k], handing the scheme the shares in the
// order given. It reads every vector element by element, decoding into
// scratch it reuses, and fans the elements out over at most workers
// contiguous chunks.
func combine(sch homenc.Scheme, cts homenc.Operand, shares []int, parts []homenc.Operand, workers int) ([]*big.Int, error) {
	n := cts.Len()
	out := make([]*big.Int, n)
	chunks := max(1, min(workers, n))
	errs := make([]error, chunks)
	parallel.ForEach(chunks, chunks, func(c int) {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		in := make([]homenc.Operand, len(parts))
		for k, p := range parts {
			in[k] = p.Slice(lo, hi)
		}
		errs[c] = combineInto(sch, out[lo:hi], cts.Slice(lo, hi), shares, in)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// combineInto decrypts every element of cts into out.
func combineInto(sch homenc.Scheme, out []*big.Int, cts homenc.Operand, shares []int, parts []homenc.Operand) error {
	scratch := make([]big.Int, len(parts)+1)
	ps := make([]homenc.PartialDecryption, len(parts))
	rs := make([]homenc.OperandReader, len(parts))
	for k, p := range parts {
		ps[k].Index, rs[k] = shares[k], p.Reader()
	}
	r := cts.Reader()
	for j := range out {
		c := r.Next(&scratch[len(parts)])
		for k := range rs {
			ps[k].V = rs[k].Next(&scratch[k])
		}
		m, err := sch.Combine(homenc.Ciphertext{V: c}, ps)
		if err != nil {
			return err
		}
		out[j] = m
	}
	return nil
}

// --- Noise streams (Section 4.2.2) ---

// NoiseConfig parametrizes the epidemic noise generation of one
// iteration.
type NoiseConfig struct {
	// Lambdas holds the Laplace scale of each protocol variable (already
	// compensated per Lemma 2). Algorithm 3 perturbs k·(n+1) values per
	// iteration: the k·n sum measures share one scale, the k counts
	// another.
	Lambdas []float64
	NShares int // nν: assumed lower bound on contributing participants
}

// Dim returns the number of Laplace variables to produce.
func (c NoiseConfig) Dim() int { return len(c.Lambdas) }

// NodeNoiseStreams derives the per-participant noise RNG streams from
// the protocol's base source: stream i is Split(i), drawn in node order.
// The derivation consumes a data-independent amount of the base source
// (two values per node), so every participant of a networked deployment
// holding the shared seed derives the identical stream family and keeps
// only its own (NodeNoiseStream) — while the simulator materializes all
// of them.
func NodeNoiseStreams(rng *randx.RNG, n int) []*randx.RNG {
	out := make([]*randx.RNG, n)
	for i := range out {
		out[i] = rng.Split(uint64(i))
	}
	return out
}

// NodeNoiseStream is NodeNoiseStreams(rng, n)[index] at the cost of one
// stream instead of n: it consumes the same 2n base draws in the same
// order and builds only stream index. A negative index builds nothing
// and just advances rng past one family (a resumed participant skipping
// the iterations it already finished).
func NodeNoiseStream(rng *randx.RNG, n, index int) *randx.RNG {
	var own *randx.RNG
	for i := 0; i < n; i++ {
		if i == index {
			own = rng.Split(uint64(i))
			continue
		}
		rng.Uint64()
		rng.Uint64()
	}
	return own
}

// NoiseShareVector draws one participant's noise-share vector
// (Definition 5) from its stream: one ν = G1 − G2 per protocol variable.
func NoiseShareVector(stream *randx.RNG, cfg NoiseConfig) []float64 {
	vec := make([]float64, cfg.Dim())
	for j := range vec {
		vec[j] = stream.NoiseShare(cfg.NShares, cfg.Lambdas[j])
	}
	return vec
}

// CorrectionProposal draws one participant's surplus-correction proposal
// (Section 4.2.2) from its stream: if the epidemic counter estimates
// more than nν contributors, the surplus noise-shares are re-drawn and
// summed into a correction vector tagged with a random identifier for
// the min-identifier dissemination. A participant without a defined
// counter estimate proposes the identity correction under the worst
// identifier (it loses every dissemination comparison).
func CorrectionProposal(stream *randx.RNG, cfg NoiseConfig, counterEst float64, ok bool) (uint64, []float64) {
	if !ok {
		return ^uint64(0), make([]float64, cfg.Dim())
	}
	surplus := int(counterEst+0.5) - cfg.NShares
	vec := make([]float64, cfg.Dim())
	for extra := 0; extra < surplus; extra++ {
		for j := 0; j < cfg.Dim(); j++ {
			vec[j] += stream.NoiseShare(cfg.NShares, cfg.Lambdas[j])
		}
	}
	return stream.Uint64(), vec
}
