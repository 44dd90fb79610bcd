package chiaroscuro

import (
	"math/bits"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
)

// Scheme is the additively-homomorphic threshold encryption the
// distributed protocol runs on.
type Scheme = homenc.Scheme

// NewDamgardJurik generates a fresh threshold Damgård–Jurik scheme:
// keyBits RSA modulus (the paper uses 1024), degree s (plaintexts mod
// n^s), nShares key-shares with decryption threshold tau. Key generation
// searches for safe primes and is slow beyond 512-bit keys; see
// NewTestScheme for instant deterministic setups.
func NewDamgardJurik(keyBits, s, nShares, tau int) (Scheme, error) {
	return damgardjurik.GenerateKey(nil, keyBits, s, nShares, tau)
}

// NewTestScheme builds a threshold Damgård–Jurik scheme from precomputed
// safe primes (instant, deterministic — and therefore offering NO
// security; the factorizations ship in the source). keyBits must be 128,
// 256, 512 or 1024.
func NewTestScheme(keyBits, s, nShares, tau int) (Scheme, error) {
	return damgardjurik.NewTestScheme(keyBits, s, nShares, tau)
}

// NewSimulationScheme returns the structure-preserving no-crypto scheme
// used to scale protocol simulations to large populations (the paper's
// latency experiments measure messages, not cipher cycles). ctBytes is
// the pretend ciphertext wire size (256 mimics a 1024-bit key at s=1).
func NewSimulationScheme(ctBytes, nShares, tau int) (Scheme, error) {
	return plain.New(nil, ctBytes, nShares, tau)
}

// NetworkTrace re-exports the per-iteration protocol trace.
type NetworkTrace = core.IterationTrace

// FixedPhaseCycles returns the churn-free phase lengths for a population
// of np participants and any decryption threshold up to bits.Len(np):
// core.PhaseCycles(np, bits.Len(np), 0, false), the gossip convergence
// model's lengths at a failure probability of 10⁻⁶ per phase (a phase
// that still ends unfinished fails with ErrPhaseBudget). Networked runs
// need fixed lengths — no participant can observe global convergence —
// and Networked mode derives its own from the scheme's threshold, the
// churn and the peer sampler when Options leaves them zero. A simulation
// configured with the lengths a networked run used is cycle-for-cycle
// identical to it.
func FixedPhaseCycles(np int) (dissCycles, decryptCycles int) {
	return core.PhaseCycles(np, bits.Len(uint(np)), 0, false)
}
