package eesum

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/parallel"
	"chiaroscuro/internal/sim"
)

// DecState is one participant's input to the epidemic decryption: its
// converged ciphertext vector and the epidemic weight that decodes it.
// The epidemic sum guarantees every participant's state decodes to
// (approximately) the same values, which is what lets a less advanced
// participant adopt a more advanced one's state wholesale.
type DecState struct {
	CTs   []homenc.Ciphertext
	Omega *big.Int
}

// Decryption is the epidemic decryption protocol of Section 4.2.3.
// Every participant owns one key-share (identified by its share index)
// and accumulates partial decryptions of the ciphertext vector it
// currently holds. During an exchange the less advanced side adopts the
// more advanced side's whole state — ciphertexts, weight, and partials,
// which remain mutually consistent — and each side then applies its own
// key-share to the other's current ciphertexts if absent. A node is done
// once τ distinct key-shares have been applied.
type Decryption struct {
	sch       homenc.Scheme
	threshold int
	dim       int
	workers   int

	ownIdx []int
	states []DecState
	parts  []map[int][]homenc.PartialDecryption // node -> shareIdx -> per-element partials
}

// NewDecryption starts the protocol. states[i] is participant i's
// converged state; shareIdx[i] its key-share index (1-based, distinct).
func NewDecryption(sch homenc.Scheme, states []DecState, shareIdx []int) (*Decryption, error) {
	if len(states) != len(shareIdx) || len(states) == 0 {
		return nil, errors.New("eesum: states and share indices must align and be non-empty")
	}
	dim := len(states[0].CTs)
	if dim == 0 {
		return nil, errors.New("eesum: empty ciphertext vector")
	}
	seen := make(map[int]bool, len(shareIdx))
	for i, idx := range shareIdx {
		if idx < 1 || idx > sch.NumShares() {
			return nil, fmt.Errorf("eesum: key-share index %d out of range", idx)
		}
		if seen[idx] {
			return nil, fmt.Errorf("eesum: duplicate key-share index %d", idx)
		}
		seen[idx] = true
		if len(states[i].CTs) != dim {
			return nil, errors.New("eesum: ragged ciphertext vectors")
		}
	}
	d := &Decryption{
		sch:       sch,
		threshold: sch.Threshold(),
		dim:       dim,
		workers:   parallel.Workers(),
		ownIdx:    append([]int(nil), shareIdx...),
		states:    append([]DecState(nil), states...),
		parts:     make([]map[int][]homenc.PartialDecryption, len(states)),
	}
	for i := range d.parts {
		d.parts[i] = make(map[int][]homenc.PartialDecryption, d.threshold)
	}
	return d, nil
}

// SetWorkers overrides the worker count for the per-element partial-
// decryption and combination sweeps (values below 1 force serial). It
// returns d for chaining and must not be called mid-protocol.
func (d *Decryption) SetWorkers(workers int) *Decryption {
	if workers < 1 {
		workers = 1
	}
	d.workers = workers
	return d
}

// dimWorkers gates the per-element fan-out the same way Sum does.
func (d *Decryption) dimWorkers() int {
	if d.dim < minParallelDim {
		return 1
	}
	return d.workers
}

// ConcurrentExchangeSafe marks Decryption for the simulation engine's
// parallel cycle mode: Exchange reads and writes only the state and
// partial sets of its two nodes (adopted slices are immutable), so
// exchanges over disjoint node pairs may run concurrently.
func (d *Decryption) ConcurrentExchangeSafe() bool { return true }

// appliedShare remembers the last vector one node's key-share was
// applied to within an exchange, and the result.
type appliedShare struct {
	cts []homenc.Ciphertext
	ps  []homenc.PartialDecryption
}

// apply computes the key-share of node from over node to's current
// ciphertexts and stores it in to's set (at most once per share,
// Section 4.2.3). After an adoption both sides hold the same ciphertext
// vector, so the share already applied for one side (last) is reused
// for the other instead of being recomputed.
func (d *Decryption) apply(to, from sim.NodeID, last *appliedShare) {
	idx := d.ownIdx[from]
	if !DecNeeds(d.parts[to], d.threshold, idx) {
		return
	}
	cts := d.states[to].CTs
	if last.ps == nil || &last.cts[0] != &cts[0] {
		ps, err := DecPartials(d.sch, idx, cts, d.dimWorkers())
		if err != nil {
			return // share indices validated at construction, cannot happen
		}
		*last = appliedShare{cts: cts, ps: ps}
	}
	d.parts[to][idx] = last.ps
}

// Exchange performs one epidemic decryption exchange.
func (d *Decryption) Exchange(a, b sim.NodeID, full bool) {
	// Latency optimization (Section 4.2.3): the less advanced side
	// erases its partially-decrypted state and adopts the more advanced
	// side's — ciphertexts, weight and partials move together so the
	// set stays consistent with the ciphertexts it decrypts.
	if DecAdopts(len(d.parts[a]), len(d.parts[b])) {
		d.adopt(a, b)
	} else if full && DecAdopts(len(d.parts[b]), len(d.parts[a])) {
		d.adopt(b, a)
	}
	// Each side applies its own key-share to the other's ciphertexts,
	// and to its own state.
	var byA, byB appliedShare
	d.apply(a, b, &byB)
	d.apply(a, a, &byA)
	if full {
		d.apply(b, a, &byA)
		d.apply(b, b, &byB)
	}
}

func (d *Decryption) adopt(to, from sim.NodeID) {
	d.states[to] = d.states[from]
	d.parts[to] = CopyParts(d.parts[from], d.threshold)
}

// Done reports whether node i gathered τ distinct key-shares.
func (d *Decryption) Done(i sim.NodeID) bool { return len(d.parts[i]) >= d.threshold }

// AllDone reports whether every node finished.
func (d *Decryption) AllDone() bool {
	for i := range d.parts {
		if !d.Done(i) {
			return false
		}
	}
	return true
}

// RunUntilDone drives the engine until every node finished or maxCycles
// elapsed, returning the cycles used.
func (d *Decryption) RunUntilDone(e *sim.Engine, maxCycles int) int {
	for c := 0; c < maxCycles; c++ {
		if d.AllDone() {
			return c
		}
		e.RunCycleOn(d)
	}
	return maxCycles
}

// Plaintexts combines node i's accumulated partials into the plaintext
// vector of the state it currently holds. It fails below the threshold.
func (d *Decryption) Plaintexts(i sim.NodeID) ([]*big.Int, error) {
	return CombineParts(d.sch, d.states[i].CTs, d.parts[i], d.threshold, d.dimWorkers())
}

// Values decodes node i's decrypted plaintexts into floats using the
// weight of the state node i currently holds.
func (d *Decryption) Values(i sim.NodeID, codec homenc.Codec) ([]float64, error) {
	ms, err := d.Plaintexts(i)
	if err != nil {
		return nil, err
	}
	return DecodeState(d.sch, codec, ms, d.states[i].Omega)
}

// ValuesPacked decodes node i's decrypted packed plaintexts into the
// dim per-slot floats. With pc.Slots == 1 it equals Values.
func (d *Decryption) ValuesPacked(i sim.NodeID, pc homenc.PackedCodec, dim int) ([]float64, error) {
	ms, err := d.Plaintexts(i)
	if err != nil {
		return nil, err
	}
	return DecodePackedState(d.sch, pc, ms, d.states[i].Omega, dim)
}

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

// Exchange mirrors Decryption.Exchange at the counting level.
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
