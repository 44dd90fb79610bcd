package analysis

import "strings"

// PathIn reports whether import path p is one of the roots or a
// subpackage of one (e.g. "chiaroscuro/internal/homenc/damgardjurik"
// is in root "chiaroscuro/internal/homenc").
func PathIn(p string, roots ...string) bool {
	for _, r := range roots {
		if p == r || strings.HasPrefix(p, r+"/") {
			return true
		}
	}
	return false
}

// Package sets the analyzers scope themselves to. The analyzers match
// by these full import paths, which the analysistest fixtures reproduce
// under their testdata/src trees.
var (
	// DeterministicPackages hold protocol state whose iteration order
	// reaches released centroids, wire bytes, or replayable schedules:
	// range over a map there is a determinism bug unless proven
	// order-free (maporder's invariant, the PR 3 bug class).
	DeterministicPackages = []string{
		// The adversarial privacy bench's contract is byte-identical
		// same-seed ATTACK_*.json reports; any ordering or rng drift
		// there silently un-pins the CI privacy-regression gate.
		"chiaroscuro/internal/attack",
		"chiaroscuro/internal/eesum",
		"chiaroscuro/internal/core",
		"chiaroscuro/internal/sim",
		"chiaroscuro/internal/node",
		"chiaroscuro/internal/homenc",
		"chiaroscuro/internal/gossip",
		"chiaroscuro/internal/journal",
	}

	// SeededPackages must draw every random decision from the seeded
	// randx/SplitMix64 lineage so soak and chaos runs replay exactly
	// (rngsource's invariant, the PR 6 replay guarantee).
	SeededPackages = append([]string{
		"chiaroscuro/internal/faultnet",
		"chiaroscuro/internal/mux",
		"chiaroscuro/internal/randx",
		"chiaroscuro/internal/dp",
		"chiaroscuro/internal/dpkmeans",
		"chiaroscuro/internal/kmeans",
		"chiaroscuro/internal/soak",
	}, DeterministicPackages...)

	// WallclockFreePackages are the protocol-decision packages where
	// time.Now has no business at all: anything timing-derived there
	// leaks schedule nondeterminism into protocol state. The network
	// runtime packages (node, mux, soak) are exempt — they legitimately
	// stamp I/O deadlines.
	WallclockFreePackages = []string{
		"chiaroscuro/internal/eesum",
		"chiaroscuro/internal/core",
		"chiaroscuro/internal/sim",
		"chiaroscuro/internal/homenc",
		"chiaroscuro/internal/gossip",
		"chiaroscuro/internal/faultnet",
		"chiaroscuro/internal/dp",
		"chiaroscuro/internal/randx",
	}

	// NetworkReachablePackages decode bytes an adversary controls;
	// every Unmarshal there must be the ...Bound/Limits variant when
	// one exists (boundeddecode's invariant, the PR 2 hardening).
	NetworkReachablePackages = []string{
		"chiaroscuro/internal/node",
		"chiaroscuro/internal/mux",
		"chiaroscuro/internal/wireproto",
		// The journal decodes bytes from disk, not the wire, but a
		// tampered or corrupted state file is the same adversary shape:
		// every decode there must be bounded.
		"chiaroscuro/internal/journal",
	}

	// SharedBigIntPackages hold ciphertext/share state built on big.Int
	// whose documented contract is immutability (bigintalias's
	// invariant).
	SharedBigIntPackages = []string{
		"chiaroscuro/internal/homenc",
		"chiaroscuro/internal/eesum",
		"chiaroscuro/internal/shamir",
	}
)
