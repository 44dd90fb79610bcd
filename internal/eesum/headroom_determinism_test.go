package eesum

import (
	"math/big"
	"slices"
	"sync/atomic"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/plain"

	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/sim"
)

// latencyCounts runs the exact-mode decryption latency model for the
// given cycles and returns every node's share count after each cycle.
func latencyCounts(t *testing.T, n, tau, cycles int, seed uint64) [][]int32 {
	t.Helper()
	rng := randx.New(seed, 0xDEC)
	dl, err := NewDecryptionLatency(n, tau, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{N: n, Seed: seed + 1}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int32, cycles)
	for c := 0; c < cycles; c++ {
		e.RunCycle(dl.Exchange)
		snap := make([]int32, n)
		for i := 0; i < n; i++ {
			snap[i] = dl.count[i]
			if dl.Done(i) {
				snap[i] = int32(tau) // normalize: done is done
			}
		}
		out[c] = snap
	}
	return out
}

// TestDecryptionLatencyExactModeReproducible: two exact-mode runs at
// the same seed must produce identical per-node share counts at every
// cycle — the bit-per-seed reproducibility the Figure 4(b) experiment
// relies on. Capped unions are where an order-dependent truncation would
// bite, so τ is kept small relative to the cycle count.
func TestDecryptionLatencyExactModeReproducible(t *testing.T) {
	const n, tau, cycles = 200, 12, 16
	want := latencyCounts(t, n, tau, cycles, 77)
	for rep := 0; rep < 3; rep++ {
		got := latencyCounts(t, n, tau, cycles, 77)
		for c := range want {
			for i := range want[c] {
				if got[c][i] != want[c][i] {
					t.Fatalf("rep %d cycle %d node %d: count %d, want %d — exact mode not reproducible",
						rep, c, i, got[c][i], want[c][i])
				}
			}
		}
	}
}

// TestDecryptionLatencyUnionDeterministic drives the exact model's
// union directly: a union above τ keeps the smallest share ids, on both
// sides, and releases both — two combines. A node meeting a released
// one is released by it without combining, and keeps the set it had;
// the released set never changes.
func TestDecryptionLatencyUnionDeterministic(t *testing.T) {
	const n, tau = 8, 3
	dl, err := NewDecryptionLatency(n, tau, true, randx.New(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	set := func(i int, ids ...int32) {
		dl.sets[i], dl.count[i] = ids, int32(len(ids))
	}
	set(0, 4, 6)
	set(1, 2, 5)
	dl.Exchange(0, 1, true)
	for _, i := range []int{0, 1} {
		if !slices.Equal(dl.sets[i], []int32{2, 4, 5}) || !dl.Done(i) {
			t.Fatalf("node %d holds %v, released %v: want the smallest ids {2,4,5}, released", i, dl.sets[i], dl.Done(i))
		}
	}
	set(2, 1)
	dl.Exchange(2, 0, true)
	if !slices.Equal(dl.sets[0], []int32{2, 4, 5}) || !slices.Equal(dl.sets[2], []int32{1}) || !dl.Done(2) {
		t.Fatalf("released set %v, joining set %v (released %v): want {2,4,5} kept and {1} kept, released", dl.sets[0], dl.sets[2], dl.Done(2))
	}
	if dl.Applications() != 0 || dl.Combines() != 2 {
		t.Fatalf("%d key-shares applied and %d combines, want 0 and 2: every union reached τ, and the rumour combines nothing", dl.Applications(), dl.Combines())
	}
}

// mirrored drives the in-memory participants and the exact model over
// one schedule.
type mirrored struct {
	ps []*Participant
	dl *DecryptionLatency
}

func (m mirrored) Exchange(a, b sim.NodeID, full bool) {
	m.ps[a].ExchangeDec(m.ps[b], full)
	m.dl.Exchange(a, b, full)
}

// TestDecryptionLatencyMirrorsParticipants: the exact model is the
// rule of Participant.ExchangeDec at the counting level, also under
// mid-exchange churn. Over one schedule, every node's release state and
// share set, the key-share applications and the combines match after
// every cycle, and every node is released within 40 cycles.
func TestDecryptionLatencyMirrorsParticipants(t *testing.T) {
	for _, c := range []struct {
		n, tau int
		churn  float64
	}{{12, 4, 0}, {12, 4, 0.2}, {30, 10, 0.1}, {9, 9, 0}} {
		sch, err := plain.New(nil, 0, c.n, c.tau)
		if err != nil {
			t.Fatal(err)
		}
		// One ciphertext: one Combine call a combining participant.
		counted := &combineCounter{Scheme: sch}
		ps := decrypting(testEnv(counted, homenc.Codec{}, 1), c.n, []homenc.Ciphertext{sch.Encrypt(big.NewInt(3))})
		dl, err := NewDecryptionLatency(c.n, c.tau, true, randx.New(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sim.Config{N: c.n, Seed: 3, Churn: c.churn, MidFailure: c.churn > 0}, &sim.UniformSampler{})
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 40; cycle++ {
			e.RunCycleOn(mirrored{ps, dl})
			applied := 0
			for i, p := range ps {
				applied += p.Applications()
				ids := make([]int32, 0, len(p.DecParts))
				for _, e := range p.DecParts {
					ids = append(ids, int32(e.Idx-1))
				}
				if !slices.Equal(ids, dl.sets[i]) || p.Settled() != dl.Done(i) {
					t.Fatalf("%+v cycle %d node %d: participant holds %v released %v, model %v released %v",
						c, cycle, i, ids, p.Settled(), dl.sets[i], dl.Done(i))
				}
			}
			if applied != dl.Applications() {
				t.Fatalf("%+v cycle %d: %d applications, model %d", c, cycle, applied, dl.Applications())
			}
			if got := int(counted.combines.Load()); got != dl.Combines() {
				t.Fatalf("%+v cycle %d: %d combines, model %d", c, cycle, got, dl.Combines())
			}
		}
		if dl.FractionDone() < 1 {
			t.Fatalf("%+v: not every node finished in 40 cycles", c)
		}
		if dl.Combines() >= c.n && c.tau < c.n {
			t.Fatalf("%+v: all %d nodes combined; the release spread to none", c, dl.Combines())
		}
	}
}

// combineCounter counts a scheme's Combine calls.
type combineCounter struct {
	homenc.Scheme
	combines atomic.Int64
}

func (s *combineCounter) Combine(c homenc.Ciphertext, parts []homenc.PartialDecryption) (*big.Int, error) {
	s.combines.Add(1)
	return s.Scheme.Combine(c, parts)
}
