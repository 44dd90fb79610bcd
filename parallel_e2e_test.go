package chiaroscuro

import (
	"runtime"
	"testing"
)

// runWithWorkers executes the full distributed protocol with real
// crypto and the given worker-pool size. The decoded protocol outputs
// are exact integer sums, so the centroids must be bit-identical for
// any worker count at the same seed.
func runWithWorkers(t *testing.T, workers int) *Result {
	t.Helper()
	data, _ := GenerateCER(12, 7)
	seeds := SeedCentroids("cer", 2, 8)
	scheme, err := NewTestScheme(128, 4, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runMode(data, Simulated, Options{
		Scheme: scheme, K: 2, InitCentroids: seeds,
		DMin: CERMin, DMax: CERMax,
		Epsilon: 1e4, MaxIterations: 2, Exchanges: 12,
		Churn: 0.1, MidFailure: true,
		FracBits: 24, Seed: 21, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunWorkerCountInvariance(t *testing.T) {
	want := runWithWorkers(t, 1)
	if len(want.Centroids) == 0 {
		t.Fatal("serial run produced no centroids")
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := runWithWorkers(t, workers)
		if len(got.Centroids) != len(want.Centroids) {
			t.Fatalf("workers=%d: %d centroids, serial %d",
				workers, len(got.Centroids), len(want.Centroids))
		}
		for c := range want.Centroids {
			if (want.Centroids[c] == nil) != (got.Centroids[c] == nil) {
				t.Fatalf("workers=%d: centroid %d liveness differs", workers, c)
			}
			if want.Centroids[c] == nil {
				continue
			}
			for j := range want.Centroids[c] {
				if got.Centroids[c][j] != want.Centroids[c][j] {
					t.Fatalf("workers=%d: centroid %d[%d] = %v, serial %v",
						workers, c, j, got.Centroids[c][j], want.Centroids[c][j])
				}
			}
		}
		if got.AvgMessages != want.AvgMessages || got.AvgBytes != want.AvgBytes {
			t.Fatalf("workers=%d: accounting diverged", workers)
		}
	}
}
