package chiaroscuro

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestRunNetworkedMatchesRun drives the public entry points: the same
// seed and parameters through the in-memory simulator and through N
// real TCP listeners must release bit-identical centroids (single
// iteration; the fixed phase lengths make the two runs cycle-for-cycle
// identical).
func TestRunNetworkedMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	data, _ := GenerateCER(10, 11)
	seeds := SeedCentroids("cer", 2, 12)
	scheme, err := NewTestScheme(128, 4, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	diss, dec := FixedPhaseCycles(data.Len())
	opts := Options{
		Scheme: scheme, K: 2, InitCentroids: seeds,
		DMin: CERMin, DMax: CERMax,
		Epsilon: 1e4, MaxIterations: 1, Exchanges: 10,
		DissCycles: diss, DecryptCycles: dec,
		FracBits: 24, Seed: 33, Workers: 2,
	}
	want, err := runMode(data, Simulated, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runMode(data, Networked, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Centroids) != len(want.Centroids) || len(want.Centroids) == 0 {
		t.Fatalf("centroid count %d, want %d (non-zero)", len(got.Centroids), len(want.Centroids))
	}
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if got.Centroids[c][j] != want.Centroids[c][j] {
				t.Fatalf("centroid %d[%d]: networked %v, sim %v", c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
	}
	if got.AvgMessages != want.AvgMessages || got.AvgBytes != want.AvgBytes {
		t.Fatalf("accounting diverged: %v/%v vs %v/%v", got.AvgMessages, got.AvgBytes, want.AvgMessages, want.AvgBytes)
	}
}

// TestNetworkedNewscastVirtualMatchesSimulated pins Newscast peer
// sampling across several mux hosts: every host mirrors the schedule
// with its own sampler, so two hosts of six virtual nodes draw the
// simulator's exchanges and release its centroids bit for bit. A
// sampler shared between the hosts' mirrors would hand each a different
// schedule, and the population would time out waiting for exchanges
// nobody initiates.
func TestNetworkedNewscastVirtualMatchesSimulated(t *testing.T) {
	const n = 12
	data, _ := GenerateCER(n, 11)
	scheme, err := NewSimulationScheme(64, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	diss, dec := FixedPhaseCycles(n)
	opts := Options{
		Scheme: scheme, K: 2, InitCentroids: SeedCentroids("cer", 2, 12),
		DMin: CERMin, DMax: CERMax,
		Epsilon: 1e4, MaxIterations: 1, Exchanges: 10,
		DissCycles: diss, DecryptCycles: dec,
		FracBits: 24, Seed: 35, Workers: 2, Newscast: true,
		VirtualNodes: n / 2, ExchangeTimeout: 3 * time.Second,
	}
	want, err := runMode(data, Simulated, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runMode(data, Networked, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameCentroids(t, got.Centroids, want.Centroids)
}

// TestNetworkedThresholdStopsWithSimulator: every participant evaluates
// θ on the same release, so a networked run with θ > 0 stops at the
// simulator's iteration, before the cap, with bit-identical centroids.
// The first release loses a mean, so the drivers are also held together
// past a lost mean.
func TestNetworkedThresholdStopsWithSimulator(t *testing.T) {
	const n = 12
	data, _ := GenerateCER(n, 11)
	scheme, err := NewSimulationScheme(64, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	diss, dec := FixedPhaseCycles(n)
	opts := Options{
		Scheme: scheme, K: 2, InitCentroids: SeedCentroids("cer", 2, 12),
		DMin: CERMin, DMax: CERMax,
		Epsilon: 1e4, MaxIterations: 10, Threshold: 1, Exchanges: 10,
		DissCycles: diss, DecryptCycles: dec,
		FracBits: 24, Seed: 35, Workers: 2,
		VirtualNodes: n / 2, ExchangeTimeout: 3 * time.Second,
	}
	want, err := runMode(data, Simulated, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Converged || len(want.Traces) < 2 || len(want.Traces) >= opts.MaxIterations {
		t.Fatalf("simulator: converged %v after %d iterations; want θ to stop it after the first and before the cap %d",
			want.Converged, len(want.Traces), opts.MaxIterations)
	}
	got, err := runMode(data, Networked, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged || len(got.Traces) != len(want.Traces) {
		t.Fatalf("networked: converged %v after %d iterations, simulator converged after %d",
			got.Converged, len(got.Traces), len(want.Traces))
	}
	sameCentroids(t, got.Centroids, want.Centroids)
}

// TestRunNetworkedMultiIteration checks the runtime survives several
// iterations end to end with real threshold crypto (liveness and shape;
// TestNetworkedThresholdStopsWithSimulator holds later iterations to
// the simulator's bits).
func TestRunNetworkedMultiIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	data, _ := GenerateCER(8, 5)
	seeds := SeedCentroids("cer", 2, 6)
	scheme, err := NewTestScheme(128, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runMode(data, Networked, Options{
		Scheme: scheme, K: 2, InitCentroids: seeds,
		DMin: CERMin, DMax: CERMax,
		Epsilon: 1e4, MaxIterations: 2, Exchanges: 8,
		FracBits: 24, Seed: 9, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("ran %d iterations, want 2", len(res.Traces))
	}
	if len(res.Centroids) == 0 {
		t.Fatal("no centroids released")
	}
	for _, c := range res.Centroids {
		if len(c) != data.Dim() {
			t.Fatalf("centroid length %d, want %d", len(c), data.Dim())
		}
	}
}

// TestVirtualJobsHeapFlat pins that a finished virtual-node job leaves
// nothing behind: six back-to-back jobs of 64 virtual nodes under the
// ten-minute exchange timeout large populations run with, and the live
// heap after the sixth is what it was after the second — no connection
// a job dialed may stay reachable (from a deadline timer, say) once it
// is closed.
func TestVirtualJobsHeapFlat(t *testing.T) {
	const n = 64
	data, _ := GenerateCER(n, 7)
	seeds := SeedCentroids("cer", 2, 8)
	scheme, err := NewSimulationScheme(64, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]uint64, 7)
	for j := 1; j <= 6; j++ {
		job, err := NewJob(data, Options{
			Mode: Networked, Scheme: scheme, VirtualNodes: n,
			K: 2, InitCentroids: seeds, DMin: CERMin, DMax: CERMax,
			Epsilon: 1e4, MaxIterations: 1, Exchanges: 10,
			FracBits: 24, Seed: uint64(j), ExchangeTimeout: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Centroids) == 0 {
			t.Fatalf("job %d released no centroids", j)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live[j] = ms.HeapAlloc
	}
	t.Logf("live heap after each job: %v", live[1:])
	if float64(live[6]) > 1.25*float64(live[2]) {
		t.Fatalf("live heap after each job %v: job 6 holds more than 1.25x what job 2 did", live[1:])
	}
}
