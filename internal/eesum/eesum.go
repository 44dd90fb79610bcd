// Package eesum implements the encrypted epidemic protocols of Section
// 4.2 of the paper as one per-participant machine, Participant:
//
//   - EESum (Algorithm 2): the gossip sum over additively-homomorphic
//     ciphertexts. Divisions are deferred — instead of halving at each
//     exchange, both sides rescale to a common power-of-two epoch, add
//     homomorphically, and keep an integer weight that cancels the
//     scaling at decode time;
//   - epidemic noise generation (Section 4.2.2): each participant
//     contributes a Laplace noise-share (Definition 5), the shares are
//     EESum-aggregated alongside a cleartext participant counter; each
//     participant removes its own estimate of the surplus shares from
//     its own sums and stands for election with the perturbed means,
//     and a min-identifier dissemination elects one of them;
//   - epidemic decryption (Section 4.2.3, over the elected vector only):
//     participants gossip grow-only sets of partial decryptions, merged
//     by union, each applying its own key-share at most once, until τ
//     distinct key-shares are gathered.
//
// Two drivers run the machine: internal/core over the in-memory cycle
// engine, internal/node over the wire. DecryptionLatency is the
// counting-only model of the decryption for populations too large for
// the crypto.
package eesum

// minParallelDim is the vector length below which per-dimension loops
// stay serial: the fan-out overhead only pays off once several
// homomorphic operations can run per worker.
const minParallelDim = 4
