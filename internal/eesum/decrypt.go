package eesum

import (
	"fmt"
	"math"

	"chiaroscuro/internal/sim"
)

// DecryptionLatency is the counting-only model of the epidemic
// decryption used for the large-population latency experiment (Figure
// 4(b)), where what matters is how many exchanges each node needs to
// gather τ distinct key-shares, not the crypto itself.
//
// Exact mode tracks the actual identifier sets (memory ∝ n·τ — the same
// platform limitation the paper reports at one million participants).
// Mean-field mode tracks only set sizes, approximating membership tests
// probabilistically; it scales to millions of nodes.
type DecryptionLatency struct {
	Threshold int
	Exact     bool

	n     int
	count []int32
	sets  []map[int32]struct{} // exact mode only
	rng   interface{ Float64() float64 }
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
		rng:       rng,
	}
	if exact {
		dl.sets = make([]map[int32]struct{}, n)
		for i := range dl.sets {
			dl.sets[i] = map[int32]struct{}{int32(i): {}}
			dl.count[i] = 1
		}
	} else {
		for i := range dl.count {
			dl.count[i] = 1 // own share
		}
	}
	return dl, nil
}

// Exchange mirrors Participant.ExchangeDec at the counting level.
func (dl *DecryptionLatency) Exchange(a, b sim.NodeID, full bool) {
	if dl.Exact {
		if dl.count[b] > dl.count[a] {
			dl.adopt(a, b)
		} else if full && dl.count[a] > dl.count[b] {
			dl.adopt(b, a)
		}
		dl.insert(a, int32(b))
		if full {
			dl.insert(b, int32(a))
		}
		return
	}
	// Mean-field: adopt the larger count, then gain the peer's share
	// with probability 1 - count/n (chance it was not yet collected).
	if dl.count[b] > dl.count[a] {
		dl.count[a] = dl.count[b]
	} else if full && dl.count[a] > dl.count[b] {
		dl.count[b] = dl.count[a]
	}
	th := int32(dl.Threshold)
	if dl.count[a] < th && dl.rng.Float64() > float64(dl.count[a])/float64(dl.n) {
		dl.count[a]++
	}
	if full && dl.count[b] < th && dl.rng.Float64() > float64(dl.count[b])/float64(dl.n) {
		dl.count[b]++
	}
}

// adopt copies the more advanced side's share-set, truncating at
// Threshold over the ascending share ids — never over Go map iteration
// order, which would make the surviving set (and every later membership
// test) nondeterministic. The public transitions cap every set at
// Threshold, so the truncation branch is defensive here; the protocol's
// live truncation path is CopyParts (wire peers may present more than τ
// parts), which applies the same ordered rule.
func (dl *DecryptionLatency) adopt(to, from sim.NodeID) {
	src := dl.sets[from]
	dst := make(map[int32]struct{}, len(src))
	if len(src) <= dl.Threshold {
		//lint:orderfree whole-set copy into a set: every key lands regardless of order
		for k := range src {
			dst[k] = struct{}{}
		}
	} else {
		for _, k := range sortedKeys(src) {
			if len(dst) == dl.Threshold {
				break
			}
			dst[k] = struct{}{}
		}
	}
	dl.sets[to] = dst
	dl.count[to] = int32(len(dst))
	dl.insert(to, int32(to))
}

func (dl *DecryptionLatency) insert(node sim.NodeID, share int32) {
	if dl.count[node] >= int32(dl.Threshold) {
		return
	}
	if _, ok := dl.sets[node][share]; ok {
		return
	}
	dl.sets[node][share] = struct{}{}
	dl.count[node]++
}

// Done reports whether node i gathered enough shares.
func (dl *DecryptionLatency) Done(i sim.NodeID) bool {
	return dl.count[i] >= int32(dl.Threshold)
}

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
