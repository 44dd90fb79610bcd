package eesum

import (
	"testing"

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

// TestDecryptionLatencyExactModeReproducible pins the determinism fix in
// DecryptionLatency.adopt: two exact-mode runs at the same seed must
// produce identical per-node share counts at every cycle — the
// bit-per-seed reproducibility the Figure 4(b) experiment relies on.
// Threshold-sized adopted sets are where map-iteration-order truncation
// would bite, so τ is kept small relative to the cycle count.
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

// TestDecryptionLatencyAdoptDeterministic drives adopt directly with an
// over-full source set (the defensive case the truncation exists for)
// and checks the survivors are the smallest share ids, not map order.
func TestDecryptionLatencyAdoptDeterministic(t *testing.T) {
	const n, tau = 8, 3
	for rep := 0; rep < 20; rep++ {
		rng := randx.New(5, 5)
		dl, err := NewDecryptionLatency(n, tau, true, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Hand node 1 a set larger than τ (cannot arise through the
		// public transitions, which cap at τ — adopt must still
		// truncate deterministically rather than by map order).
		dl.sets[1] = map[int32]struct{}{6: {}, 2: {}, 5: {}, 0: {}, 7: {}}
		dl.count[1] = int32(len(dl.sets[1]))
		dl.adopt(0, 1)
		for _, want := range []int32{0, 2, 5} {
			if _, ok := dl.sets[0][want]; !ok {
				t.Fatalf("rep %d: adopted set %v, want the smallest ids {0,2,5}", rep, dl.sets[0])
			}
		}
		if len(dl.sets[0]) != tau {
			t.Fatalf("rep %d: adopted set has %d entries, want %d", rep, len(dl.sets[0]), tau)
		}
	}
}
