package eesum

import (
	"fmt"
	"math"
	"slices"

	"chiaroscuro/internal/sim"
)

// DecryptionLatency is the counting-only model of the epidemic
// decryption used for the large-population latency experiment (Figure
// 4(b)) and the phase-length validation grid, where what matters is how
// many exchanges each node needs to be released, not the crypto itself.
// It follows Participant's rule: a node's set starts empty, two nodes
// not yet released merge their sets by union capped at the lowest τ
// share ids (the responder of a half-completed exchange keeps its set),
// and while the union is below τ each side whose share neither set holds
// adds it — its one key-share application of the iteration. A node whose
// set reaches τ combines it, once, and is released; a released node
// releases every node it meets that is not, which combines nothing, and
// then keeps the set it had.
//
// Exact mode tracks the actual share sets (memory ∝ n·τ — the same
// platform limitation the paper reports at one million participants)
// and mirrors Participant.ExchangeDec exactly. Mean-field mode tracks
// only set sizes, taking the overlap of two sets as that of random
// subsets of the n shares; it scales to millions of nodes.
type DecryptionLatency struct {
	Threshold int
	Exact     bool

	n        int
	count    []int32
	sets     [][]int32 // exact mode only: ascending share ids, never written in place
	applied  []bool
	released []bool
	combines int
	rng      interface{ Float64() float64 }
}

// NewDecryptionLatency builds the latency model for n nodes, each owning
// key-share i (0-based here; identity is all that matters).
func NewDecryptionLatency(n, threshold int, exact bool, rng interface{ Float64() float64 }) (*DecryptionLatency, error) {
	if threshold < 1 || threshold > n {
		return nil, fmt.Errorf("eesum: threshold %d out of range for %d nodes", threshold, n)
	}
	dl := &DecryptionLatency{
		Threshold: threshold,
		Exact:     exact,
		n:         n,
		count:     make([]int32, n),
		applied:   make([]bool, n),
		released:  make([]bool, n),
		rng:       rng,
	}
	if exact {
		dl.sets = make([][]int32, n)
	}
	return dl, nil
}

// Exchange mirrors Participant.ExchangeDec at the counting level.
func (dl *DecryptionLatency) Exchange(a, b sim.NodeID, full bool) {
	ra, rb := dl.released[a], dl.released[b]
	switch {
	case ra && (!full || rb):
		return // released nodes never change
	case ra || rb:
		// The released side's leg releases the other (b, when a is
		// released, only past a completed exchange: the case above).
		dl.released[a], dl.released[b] = true, true
		return
	}
	var merged int32
	if dl.Exact {
		merged = dl.unionExact(a, b, full)
	} else {
		merged = dl.unionMeanField(a, b)
	}
	dl.commit(a, merged)
	if full {
		dl.commit(b, merged)
	}
}

// unionMeanField is the union of two random subsets of the n shares,
// plus each side's share with the chance neither set holds it, capped
// at τ: the size both sides commit to.
func (dl *DecryptionLatency) unionMeanField(a, b sim.NodeID) int32 {
	th := int32(dl.Threshold)
	ca, cb := float64(dl.count[a]), float64(dl.count[b])
	u := ca + cb - ca*cb/float64(dl.n)
	if u < float64(th) {
		miss := 1 - u/float64(dl.n)
		if dl.rng.Float64() < miss {
			u++
			dl.applied[a] = true
		}
		if dl.rng.Float64() < miss {
			u++
			dl.applied[b] = true
		}
	}
	return min(th, int32(math.Round(u))) // ≥ either count: u ≥ max(ca, cb)
}

// unionExact is unionMeanField over the share sets themselves: it
// stores the merged set for a, and for b when the exchange completes,
// and returns its size.
func (dl *DecryptionLatency) unionExact(a, b sim.NodeID, full bool) int32 {
	merged := unionSorted(dl.sets[a], dl.sets[b])
	if len(merged) < dl.Threshold {
		ka, kb := !slices.Contains(merged, int32(a)), !slices.Contains(merged, int32(b))
		if ka {
			merged = insertSorted(merged, int32(a))
			dl.applied[a] = true
		}
		if kb {
			merged = insertSorted(merged, int32(b))
			dl.applied[b] = true
		}
	}
	merged = merged[:min(len(merged), dl.Threshold)]
	dl.sets[a] = merged
	if full {
		dl.sets[b] = merged
	}
	return int32(len(merged))
}

// commit sets node i's set size to the union's, releasing it — one
// combine — when the union fills it.
func (dl *DecryptionLatency) commit(i sim.NodeID, merged int32) {
	dl.count[i] = merged
	if merged >= int32(dl.Threshold) {
		dl.released[i] = true
		dl.combines++
	}
}

// unionSorted merges two ascending sets into a new one.
func unionSorted(x, y []int32) []int32 {
	out := make([]int32, 0, len(x)+len(y)+2)
	for len(x) > 0 || len(y) > 0 {
		switch {
		case len(y) == 0 || (len(x) > 0 && x[0] < y[0]):
			out, x = append(out, x[0]), x[1:]
		case len(x) == 0 || y[0] < x[0]:
			out, y = append(out, y[0]), y[1:]
		default:
			out, x, y = append(out, x[0]), x[1:], y[1:]
		}
	}
	return out
}

// insertSorted inserts v into the ascending set s, which it owns.
func insertSorted(s []int32, v int32) []int32 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

// Done reports whether node i is released.
func (dl *DecryptionLatency) Done(i sim.NodeID) bool { return dl.released[i] }

// Combines returns how many nodes combined τ key-shares themselves so
// far; every other released node took a peer's release.
func (dl *DecryptionLatency) Combines() int { return dl.combines }

// FractionDone returns the fraction of nodes that finished.
func (dl *DecryptionLatency) FractionDone() float64 {
	done := 0
	for i := range dl.count {
		if dl.Done(i) {
			done++
		}
	}
	return float64(done) / float64(dl.n)
}

// Applications returns how many nodes applied their key-share so far.
func (dl *DecryptionLatency) Applications() int {
	n := 0
	for _, a := range dl.applied {
		if a {
			n++
		}
	}
	return n
}

// ExpectedDecryptMessages is the closed-form "Tendencies" estimate for
// Figure 4(b): collecting tau distinct key-shares out of a population of
// n by meeting uniformly random peers is a coupon-collector partial sum,
//
//	E[messages] ≈ n · ln(n / (n - tau)),
//
// which is ≈ tau for tau ≪ n and grows superlinearly as tau approaches n.
func ExpectedDecryptMessages(n, tau int) float64 {
	if tau >= n {
		return math.Inf(1)
	}
	return float64(n) * math.Log(float64(n)/float64(n-tau))
}
