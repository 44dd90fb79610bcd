package node

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/faultnet"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// releaseDigest is FNV-1a over a release's float bits: equal digests
// mean bit-identical centroids.
func releaseDigest(centroids []timeseries.Series) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	put(uint64(len(centroids)))
	for _, c := range centroids {
		put(uint64(len(c)))
		for _, v := range c {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// settledTailSerialDigests are the sixteen participants' releases of
// TestSettledTailBitMatchesSimulator's run as the slot-serial runtime
// produces them: captured from the commit before settled states served
// passively (99279d7), where every participation of every peer ran in
// slot order. Each participant decrypts its own view (its own or an
// adopted ciphertext vector), so the sixteen differ; the simulator only
// vouches for participant 0. After an intended protocol change the
// failure message prints the new table.
var settledTailSerialDigests = [16]uint64{
	0x992691860899ad0e,
	0x4e2359c32e6d94ca,
	0x4e2359c32e6d94ca,
	0x992691860899ad0e,
	0x992691860899ad0e,
	0xbe6334fcfef6d728,
	0x4e2359c32e6d94ca,
	0x992691860899ad0e,
	0x992691860899ad0e,
	0x992691860899ad0e,
	0x992691860899ad0e,
	0xbe6334fcfef6d728,
	0x992691860899ad0e,
	0x992691860899ad0e,
	0xbe6334fcfef6d728,
	0x992691860899ad0e,
}

// TestSettledTailBitMatchesSimulator pins that taking the settled tail
// of the decryption phase out of slot order is invisible in the
// results: 16 TCP peers (τ = 5, the fixed phase budget of a 16-peer
// deployment, seeded write latency so the passive serves really
// overlap) release, participant by participant, the bits the
// slot-serial runtime released — participant 0's being the
// simulator's — with every scheduled exchange committed on both sides,
// no timeout, no retry, every cycle of every phase reported exactly
// once and in order, and no goroutine left behind.
func TestSettledTailBitMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	baseline := runtime.NumGoroutine()
	const n, tau = 16, 5
	data, _ := datasets.GenerateCER(n, randx.New(7, 0))
	scheme, err := damgardjurik.NewTestScheme(128, 4, n, tau)
	if err != nil {
		t.Fatal(err)
	}
	ts := newSetup(t, 2, 0) // for the shared protocol parameters only
	ts.n, ts.data, ts.scheme = n, data, scheme
	ts.proto.PackSlots = 2
	ts.proto.DissCycles, ts.proto.DecryptCycles = 16, 18 // a long tail: most decryption cycles run settled
	simRes := runSim(t, ts)
	if len(simRes.Centroids) == 0 {
		t.Fatal("simulator produced no centroids")
	}

	type progress struct {
		phase  core.Phase
		cycle  int
		cycles int
	}
	seen := make([][]progress, n) // each written by its own node's main loop only
	inj := faultnet.New(faultnet.Plan{Seed: ts.proto.Seed, LatencyMax: time.Millisecond})
	nodes := make([]*Node, n)
	bootstrap := ""
	for i := range nodes {
		proto := ts.proto
		proto.Observer.Phase = func(_ int, ph core.Phase, cycle, of int) {
			seen[i] = append(seen[i], progress{ph, cycle, of})
		}
		nd, err := New(Config{
			Index: i, N: n, Series: data.Row(i), Scheme: scheme, Proto: proto,
			Bootstrap:       bootstrap,
			ExchangeTimeout: 20 * time.Second,
			JoinTimeout:     20 * time.Second,
			ViewInterval:    200 * time.Millisecond,
			Dialer:          inj.Node(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		nodes[i] = nd
		if i == 0 {
			bootstrap = nd.Addr()
		}
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = nd.Run()
		}()
	}
	wg.Wait()
	for _, nd := range nodes {
		_ = nd.Close()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	assertCentroidsEqual(t, "node 0 vs sim", simRes.Centroids, results[0].Centroids)
	var got [n]uint64
	for i, r := range results {
		got[i] = releaseDigest(r.Centroids)
	}
	if got != settledTailSerialDigests {
		table := ""
		for _, d := range got {
			table += fmt.Sprintf("\t%#016x,\n", d)
		}
		t.Errorf("releases differ from the slot-serial runtime's; this run released\n%s", table)
	}

	// Every scheduled exchange committed exactly once on each side: with
	// no churn every participant initiates once per cycle.
	clean := int64(n * (ts.proto.Exchanges + ts.proto.DissCycles + ts.proto.DecryptCycles))
	tot := exchangeTotals(results)
	if tot.Initiated != clean || tot.Responded != clean || tot.Timeouts != 0 || tot.Retries != 0 {
		t.Errorf("exchange totals %+v, want %d initiated = responded, no timeouts, no retries", tot, clean)
	}

	phases := []struct {
		phase  core.Phase
		cycles int
	}{
		{core.PhaseSum, ts.proto.Exchanges},
		{core.PhaseDissemination, ts.proto.DissCycles},
		{core.PhaseDecryption, ts.proto.DecryptCycles},
	}
	for i, calls := range seen {
		k := 0
		for _, ph := range phases {
			for c := 1; c <= ph.cycles; c, k = c+1, k+1 {
				if want := (progress{ph.phase, c, ph.cycles}); k >= len(calls) || calls[k] != want {
					t.Fatalf("node %d progress report %d: got %v of %d, want %+v", i, k, calls[min(k, len(calls)-1)], len(calls), want)
				}
			}
		}
		if k != len(calls) {
			t.Fatalf("node %d reported %d cycles, want %d", i, len(calls), k)
		}
	}
	checkNoLeak(t, baseline)
}
