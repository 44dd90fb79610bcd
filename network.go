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

// FixedPhaseCycles returns deterministic phase lengths for a population
// of np participants: enough cycles for the min-identifier
// dissemination and the τ-share epidemic decryption to complete with
// ample slack (both finish in O(log np) cycles; extra cycles are
// protocol no-ops). Networked deployments need fixed lengths — no
// participant can observe global convergence — and a simulation
// configured with the same values is cycle-for-cycle identical.
func FixedPhaseCycles(np int) (dissCycles, decryptCycles int) {
	logN := bits.Len(uint(np))
	return 6 + 2*logN, 8 + 2*logN
}
