package wireproto_test

import (
	"context"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/mux"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/wireproto"
)

// runVirtual runs a 12-participant population as virtual nodes behind
// one mux.Host and returns every participant's own result.
func runVirtual(t *testing.T, data *timeseries.Dataset, scheme homenc.Scheme, proto core.Config) []*node.Result {
	t.Helper()
	pop, err := mux.Launch(node.Config{
		N: data.Len(), Scheme: scheme, Proto: proto,
		ExchangeTimeout: 20 * time.Second, FinTimeout: 20 * time.Second, JoinTimeout: 20 * time.Second,
	}, data, 0, data.Len(), data.Len(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	results, err := pop.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestPoolReuseKeepsAdoptedStatesIntact recycles frame buffers as
// aggressively as the pool allows — one idle buffer per size class, so
// a released frame is overwritten by the very next read or write — and
// runs a full 12-participant protocol on it. Anything that outlives an
// exchange leg (an adopted decryption state, an accepted partial
// vector) must have been copied out of its frame first: every
// participant's release, which it combines from exactly those adopted
// images, must bit-match the same run on an unconstrained pool, and
// participant 0's must bit-match the simulator. Under -race a frame
// touched after its release is additionally reported as a data race
// with the buffer's next user.
func TestPoolReuseKeepsAdoptedStatesIntact(t *testing.T) {
	data, _ := datasets.GenerateCER(12, randx.New(7, 0))
	scheme, err := damgardjurik.NewTestScheme(128, 4, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]timeseries.Series, 2)
	for c := range seeds {
		seeds[c] = make(timeseries.Series, data.Dim())
		for j := range seeds[c] {
			seeds[c][j] = 10 + 30*float64(c)
		}
	}
	proto := core.Config{
		K: 2, InitCentroids: seeds, DMin: datasets.CERMin, DMax: datasets.CERMax,
		Epsilon: 1e4, MaxIterations: 1, Exchanges: 10, DissCycles: 8, DecryptCycles: 10,
		FracBits: 24, Seed: 21, Workers: 2,
	}
	nw, err := core.NewNetwork(data, scheme, proto)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	roomy := runVirtual(t, data, scheme, proto)

	restore := wireproto.SetPoolKeep(1)
	defer restore()
	before := homenc.ReadWireStats()
	tight := runVirtual(t, data, scheme, proto)
	after := homenc.ReadWireStats()

	if kept := (after.Scanned - before.Scanned) - (after.Materialized - before.Materialized); kept <= 0 {
		t.Fatalf("no received vector stayed an image (%+v -> %+v): the run exercised no adoption", before, after)
	}
	equal := func(label string, want, got []timeseries.Series) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d centroids, want %d", label, len(got), len(want))
		}
		for c := range want {
			for j := range want[c] {
				if got[c][j] != want[c][j] {
					t.Fatalf("%s: centroid %d[%d] = %v, want %v (bit mismatch)", label, c, j, got[c][j], want[c][j])
				}
			}
		}
	}
	equal("participant 0 vs simulator", sim.Centroids, tight[0].Centroids)
	for i := range tight {
		equal("participant vs unconstrained pool", roomy[i].Centroids, tight[i].Centroids)
		if tight[i].Counters.BadFrames != 0 || tight[i].Counters.Rejected != 0 || tight[i].Counters.Timeouts != 0 {
			t.Fatalf("participant %d saw damaged frames: %+v", i, tight[i].Counters)
		}
	}
}
