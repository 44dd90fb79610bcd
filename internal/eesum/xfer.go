// Transport-agnostic exchange transitions: the state updates of the
// encrypted epidemic protocols (Algorithm 2 sum merge, Section 4.2.3
// decryption adoption/partial gathering, Section 4.2.2 noise streams)
// expressed over portable per-participant states, with no reference to
// the simulation engine. Participant is built from these functions.

package eesum

import (
	"errors"
	"math/big"
	"slices"
	"sync"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/parallel"
	"chiaroscuro/internal/randx"
)

// SumState is an EESum state in value form: the encrypted vector, the
// integer epidemic weight, and the deferred-division epoch. Its logical
// value is CTs / (Omega · 2^FracBits); the 2^Epoch scaling is common to
// numerator and weight and cancels at decode time. A participant keeps
// its states as SumSides, whose vectors are images; values are for
// callers that hold them already.
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

// MergeSum is mergeSum over states in value form, its result decoded
// back into values. It adapts the one kernel to callers that hold values
// — today only the benchmark's layer probe; the protocol merges
// SumOperands.
func MergeSum(sch homenc.Scheme, a, b SumState, workers int) SumState {
	op := func(st SumState) SumOperand {
		return SumOperand{CTs: homenc.ValuesOperand(st.CTs), Omega: st.Omega, Epoch: st.Epoch}
	}
	return mergeSum(sch, op(a), op(b), workers).State()
}

// mergeSum is the local update rule of Algorithm 2 as a pure function of
// the two exchanging sides' states: the staler side is rescaled to the
// fresher epoch (ciphertext exponentiation, weight shift), the vectors
// are added homomorphically, the weights added, and the epoch advanced.
// The operands are only read, and the result's vector is an image.
// Both sides of a full exchange adopt the result.
func mergeSum(sch homenc.Scheme, a, b SumOperand, workers int) SumSide {
	stale, fresh := a, b
	if b.Epoch < a.Epoch {
		stale, fresh = b, a
	}
	shift := uint(fresh.Epoch - stale.Epoch)
	omega := new(big.Int).Lsh(stale.Omega, shift)
	return SumSide{
		CTs:   sch.MergeVec(stale.CTs, shift, fresh.CTs, workers),
		Omega: omega.Add(omega, fresh.Omega),
		Epoch: fresh.Epoch + 1,
	}
}

// AddEncryptedState homomorphically adds E(v_j · st.Omega) into st.CTs
// in place — the "encrypted perturbation" of Algorithm 3 line 7 shape,
// shifting the decoded estimate by exactly v.
func AddEncryptedState(sch homenc.Scheme, st SumState, v []*big.Int, workers int) error {
	if len(v) != len(st.CTs) {
		return errors.New("eesum: dimension mismatch")
	}
	parallel.ForEach(workers, len(st.CTs), func(j int) {
		scaled := new(big.Int).Mul(v[j], st.Omega)
		st.CTs[j] = sch.Add(st.CTs[j], sch.Encrypt(scaled))
	})
	return nil
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
	return SumSide{CTs: sch.MergeVec(means.CTs, 0, noise.CTs, 1), Omega: means.Omega, Epoch: means.Epoch}, nil
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
	out := make([]float64, dim)
	for j, m := range slots {
		out[j] = pc.Codec.Decode(m, omega)
	}
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

// DecAdopts reports whether the side holding gathered shares `mine`
// adopts the peer state holding `theirs` — the latency optimization of
// Section 4.2.3: the less advanced side erases its partially-decrypted
// state and takes over the more advanced side's wholesale. Ties adopt
// nothing.
func DecAdopts(mine, theirs int) bool { return theirs > mine }

// DecNeeds reports whether a state with the given gathered partials
// (in whatever form the caller holds them: values, wire images, scanned
// views) still wants key-share idx: below the threshold and not yet
// present.
func DecNeeds[V any](parts map[int]V, threshold, idx int) bool {
	if len(parts) >= threshold {
		return false
	}
	_, dup := parts[idx]
	return !dup
}

// DecPartials computes key-share idx's partial decryption of every
// element of cts — the unit of work one participant contributes to a
// peer's (or its own) decryption state.
func DecPartials(sch homenc.Scheme, idx int, cts []homenc.Ciphertext, workers int) ([]homenc.PartialDecryption, error) {
	ps := make([]homenc.PartialDecryption, len(cts))
	var firstErr error
	var mu sync.Mutex
	parallel.ForEach(workers, len(cts), func(j int) {
		p, err := sch.PartialDecrypt(idx, cts[j])
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		ps[j] = p
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return ps, nil
}

// CopyParts copies a gathered-partials map, capped at threshold entries
// (the adopting side never needs more than τ distinct shares). The cap
// keeps the lowest share indices: truncating by map iteration order
// would make which shares survive — and every downstream state —
// nondeterministic across runs of the same seed.
func CopyParts[V any](parts map[int]V, threshold int) map[int]V {
	dst := make(map[int]V, threshold)
	if len(parts) <= threshold {
		//lint:orderfree whole-map copy into a map: every entry lands regardless of order
		for k, v := range parts {
			dst[k] = v
		}
		return dst
	}
	for _, k := range sortedKeys(parts) {
		if len(dst) == threshold {
			break
		}
		dst[k] = parts[k]
	}
	return dst
}

// sortedKeys returns a map's keys in ascending order — the deterministic
// iteration order for any truncation decision.
func sortedKeys[V any, K ~int | ~int32](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// CombineParts combines τ gathered partial-decryption vectors into the
// plaintext vector of cts. parts maps share index to per-element
// partials; threshold distinct shares must be present.
func CombineParts(sch homenc.Scheme, cts []homenc.Ciphertext, parts map[int][]homenc.PartialDecryption, threshold, workers int) ([]*big.Int, error) {
	if len(parts) < threshold {
		return nil, errors.New("eesum: decryption incomplete")
	}
	out := make([]*big.Int, len(cts))
	// Select which τ shares combine over ascending share ids, never map
	// order: the plaintext is share-set independent, but the combining
	// subset must not vary across runs of the same seed.
	order := sortedKeys(parts)
	if len(order) > threshold {
		order = order[:threshold]
	}
	var mu sync.Mutex
	var firstErr error
	parallel.ForEach(workers, len(cts), func(j int) {
		ps := make([]homenc.PartialDecryption, 0, threshold)
		for _, k := range order {
			ps = append(ps, parts[k][j])
		}
		m, err := sch.Combine(cts[j], ps)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		out[j] = m
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
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
