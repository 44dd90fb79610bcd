// Package eesum implements the encrypted epidemic protocols of Section
// 4.2 of the paper:
//
//   - EESum (Algorithm 2): the gossip sum over additively-homomorphic
//     ciphertexts. Divisions are deferred — instead of halving at each
//     exchange, both sides rescale to a common power-of-two epoch, add
//     homomorphically, and keep an integer weight that cancels the
//     scaling at decode time;
//   - epidemic noise generation (Section 4.2.2): each participant
//     contributes a Laplace noise-share (Definition 5), the shares are
//     EESum-aggregated alongside a cleartext participant counter, and a
//     min-identifier correction dissemination removes the surplus
//     shares;
//   - epidemic decryption (Section 4.2.3): each participant applies its
//     own key-share to the converged ciphertexts and gossips the set of
//     partial decryptions until τ distinct key-shares are gathered.
package eesum

import (
	"errors"
	"fmt"
	"math/big"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/parallel"
	"chiaroscuro/internal/sim"
)

// minParallelDim is the vector length below which per-dimension loops
// stay serial: the fan-out overhead only pays off once several
// homomorphic operations can run per worker.
const minParallelDim = 4

// Sum is the EESum protocol state for a population of nodes, each
// holding a vector of dim encrypted values, an integer weight, and an
// exchange epoch. The logical value of node i is ct_i / (ω_i · 2^f) —
// the power-of-two epoch scaling is common to numerator and denominator
// and cancels.
type Sum struct {
	sch     homenc.Scheme
	dim     int
	workers int

	ct    [][]homenc.Ciphertext
	omega []*big.Int
	epoch []int
}

// NewSum encrypts each node's initial plaintext vector and assigns the
// epidemic weight 1 to weightNode (0 elsewhere), per Section 3.2. It
// uses the process-wide parallel.Workers() default; see NewSumWorkers.
func NewSum(sch homenc.Scheme, initial [][]*big.Int, weightNode int) (*Sum, error) {
	return NewSumWorkers(sch, initial, weightNode, parallel.Workers())
}

// NewSumWorkers is NewSum with an explicit worker count for the n×dim
// encryption fan-out and every later per-dimension loop (1 forces fully
// serial execution; results are identical for any worker count).
func NewSumWorkers(sch homenc.Scheme, initial [][]*big.Int, weightNode, workers int) (*Sum, error) {
	n := len(initial)
	if n < 2 {
		return nil, errors.New("eesum: need at least 2 nodes")
	}
	if weightNode < 0 || weightNode >= n {
		return nil, fmt.Errorf("eesum: weight node %d out of range", weightNode)
	}
	if workers < 1 {
		workers = 1
	}
	dim := len(initial[0])
	s := &Sum{
		sch:     sch,
		dim:     dim,
		workers: workers,
		ct:      make([][]homenc.Ciphertext, n),
		omega:   make([]*big.Int, n),
		epoch:   make([]int, n),
	}
	for i, vec := range initial {
		if len(vec) != dim {
			return nil, errors.New("eesum: ragged initial vectors")
		}
		s.ct[i] = make([]homenc.Ciphertext, dim)
		s.omega[i] = big.NewInt(0)
	}
	// The n×dim encryption fan-out: every slot is independent, so it
	// spreads across the worker pool (the schemes are safe for
	// concurrent use).
	parallel.ForEach(workers, n*dim, func(f int) {
		i, j := f/dim, f%dim
		s.ct[i][j] = sch.Encrypt(initial[i][j])
	})
	s.omega[weightNode] = big.NewInt(1)
	return s, nil
}

// SetWorkers overrides the worker count used by the per-dimension
// loops (values below 1 force serial). It returns s for chaining and
// must not be called concurrently with protocol operations.
func (s *Sum) SetWorkers(workers int) *Sum {
	if workers < 1 {
		workers = 1
	}
	s.workers = workers
	return s
}

// dimWorkers returns the worker count for a per-dimension loop, gating
// out vectors too short to amortize the fan-out.
func (s *Sum) dimWorkers() int {
	if s.dim < minParallelDim {
		return 1
	}
	return s.workers
}

// ConcurrentExchangeSafe marks Sum for the simulation engine's parallel
// cycle mode (sim.ConcurrentExchanger): Exchange only touches the state
// of its two nodes, ciphertext values are immutable, and the scheme
// operations are concurrency-safe, so exchanges over disjoint node
// pairs may run concurrently.
func (s *Sum) ConcurrentExchangeSafe() bool { return true }

// Dim returns the vector length per node.
func (s *Sum) Dim() int { return s.dim }

// Epoch returns node i's exchange epoch (the deferred-division exponent).
func (s *Sum) Epoch(i sim.NodeID) int { return s.epoch[i] }

// Exchange is the local update rule of Algorithm 2, applied element-wise
// to the ciphertext vectors:
//
//	if epochs differ, the lower side is scaled by 2^diff (ciphertext
//	exponentiation, weight shift);
//	both sides then hold E(v_a)+hE(v_b), ω_a+ω_b, max(e_a,e_b)+1.
//
// When full is false only the initiator applies the update (mid-exchange
// churn corruption, Section 6.1.5).
func (s *Sum) Exchange(a, b sim.NodeID, full bool) {
	m := MergeSum(s.sch, s.State(a), s.State(b), s.dimWorkers())
	s.ct[a], s.omega[a], s.epoch[a] = m.CTs, m.Omega, m.Epoch
	if full {
		// The two sides share ciphertext values (immutable), but not the
		// slice or weight, so later in-place mutation of one cannot
		// corrupt the other.
		cpy := m.Clone()
		s.ct[b], s.omega[b], s.epoch[b] = cpy.CTs, cpy.Omega, cpy.Epoch
	}
}

// State returns node i's portable EESum state (shared slices; treat as
// read-only or Clone).
func (s *Sum) State(i sim.NodeID) SumState {
	return SumState{CTs: s.ct[i], Omega: s.omega[i], Epoch: s.epoch[i]}
}

// AddEncrypted homomorphically adds an encrypted vector (already scaled
// by the node's own weight) into node i's state — the "encrypted
// perturbation" step of Algorithm 3 (line 7). The caller provides
// plaintext integers v; what is added is E(v · ω_i), so the decoded
// estimate shifts by exactly v.
func (s *Sum) AddEncrypted(i sim.NodeID, v []*big.Int) error {
	return AddEncryptedState(s.sch, s.State(i), v, s.dimWorkers())
}

// Ciphertexts returns node i's current encrypted vector (shared; do not
// mutate).
func (s *Sum) Ciphertexts(i sim.NodeID) []homenc.Ciphertext { return s.ct[i] }

// Omega returns node i's integer weight (shared; do not mutate).
func (s *Sum) Omega(i sim.NodeID) *big.Int { return s.omega[i] }

// EstimateWith decodes node i's estimate of the global sum using an
// arbitrary decryption oracle (the non-threshold Decrypt in tests, the
// epidemic threshold decryption in the full protocol). codec translates
// fixed-point plaintexts; the weight ω_i divides out the 2^epoch scale.
func (s *Sum) EstimateWith(i sim.NodeID, codec homenc.Codec, decrypt func(homenc.Ciphertext) (*big.Int, error)) ([]float64, error) {
	if s.omega[i].Sign() == 0 {
		return nil, errors.New("eesum: estimate undefined (zero weight)")
	}
	out := make([]float64, s.dim)
	for j, c := range s.ct[i] {
		raw, err := decrypt(c)
		if err != nil {
			return nil, err
		}
		centered := homenc.Centered(raw, s.sch.PlaintextSpace())
		out[j] = codec.Decode(centered, s.omega[i])
	}
	return out, nil
}

// HeadroomExchanges returns how many exchanges are safe before the
// scaled plaintexts could overflow half the plaintext space (values must
// stay centered-representable). sumAbsBound is an upper bound on the
// absolute value of the global (fixed-point encoded) sum. A scheme
// without a plaintext bound returns maxInt. The boundary math lives in
// homenc.HeadroomEpochs, shared with core's pre-flight check.
func (s *Sum) HeadroomExchanges(sumAbsBound *big.Int) int {
	return homenc.HeadroomEpochs(s.sch.PlaintextSpace(), sumAbsBound)
}
