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

// TestShareApplicationsMatchAcrossDrivers pins the union rule's share
// count: a participant applies its key-share at most once an iteration,
// to the elected vector, so an iteration makes at most np applications.
// The simulator counts them over every participant; each node counts
// its own, and the nodes' counts add up to the simulator's — the same
// rule in both drivers — as do the PartialDecrypt calls behind them. The
// released bits and the exchange totals must not move.
func TestShareApplicationsMatchAcrossDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	const exchanges = 336 // Initiated == Responded on a clean network
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
	for it, tr := range simRes.Traces {
		net := 0
		for _, r := range results {
			net += r.Traces[it].ShareApplications
		}
		if tr.ShareApplications > ts.n || tr.ShareApplications == 0 || net != tr.ShareApplications {
			t.Errorf("iteration %d: %d key-share applications in the simulator, %d over the nodes; want equal, in (0, %d]",
				tr.Iteration, tr.ShareApplications, net, ts.n)
		}
	}
	if sim, net := simScheme.partials.Load(), netScheme.partials.Load(); sim != net {
		t.Errorf("PartialDecrypt calls: simulator %d, networked %d", sim, net)
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
