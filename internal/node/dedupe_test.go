package node

import (
	"sync/atomic"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/homenc"
)

// countingScheme counts PartialDecrypt calls — the unit of crypto work
// the epidemic decryption spends per key-share application.
type countingScheme struct {
	homenc.Scheme
	partials atomic.Int64
}

func (s *countingScheme) PartialDecrypt(index int, c homenc.Ciphertext) (homenc.PartialDecryption, error) {
	s.partials.Add(1)
	return s.Scheme.PartialDecrypt(index, c)
}

// TestAdoptionAppliesEachShareOnce pins the adoption dedupe: when one
// side of a decryption exchange adopts the other's state, both sides
// end up holding the same ciphertext vector, and a key-share applied to
// it for one side must be reused for the other instead of recomputed.
// The parent commit recomputed it (callsParent was measured there, same
// seed); the released bits and the exchange totals must not move.
func TestAdoptionAppliesEachShareOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	const (
		callsParent = 750 // simulator and networked alike, at the parent commit
		calls       = 600
		exchanges   = 336 // Initiated == Responded on a clean network
	)
	ts := newSetup(t, 12, 0)

	simScheme := &countingScheme{Scheme: ts.scheme}
	nw, err := core.NewNetwork(ts.data, simScheme, ts.proto)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := simScheme.partials.Load(); got != calls || got >= callsParent {
		t.Errorf("simulator PartialDecrypt calls = %d, want %d (parent commit: %d)", got, calls, callsParent)
	}

	netScheme := &countingScheme{Scheme: ts.scheme}
	nodes := make([]*Node, ts.n)
	for i := range nodes {
		cfg := Config{
			Index: i, N: ts.n, Series: ts.data.Row(i), Scheme: netScheme, Proto: ts.proto,
			ExchangeTimeout: 20 * time.Second, FinTimeout: 20 * time.Second,
			JoinTimeout: 20 * time.Second, ViewInterval: 200 * time.Millisecond,
		}
		if i > 0 {
			cfg.Bootstrap = nodes[0].Addr()
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		nodes[i] = nd
	}
	results := make([]*Result, ts.n)
	errs := make(chan error, ts.n)
	for i, nd := range nodes {
		go func() {
			var err error
			results[i], err = nd.Run()
			errs <- err
		}()
	}
	for range nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := netScheme.partials.Load(); got != calls || got >= callsParent {
		t.Errorf("networked PartialDecrypt calls = %d, want %d (parent commit: %d)", got, calls, callsParent)
	}
	assertCentroidsEqual(t, "node 0 vs sim", simRes.Centroids, results[0].Centroids)
	var initiated, responded int64
	for _, r := range results {
		initiated += r.Counters.Initiated
		responded += r.Counters.Responded
	}
	if initiated != exchanges || responded != exchanges {
		t.Errorf("exchange totals = %d initiated / %d responded, want %d each", initiated, responded, exchanges)
	}
}
