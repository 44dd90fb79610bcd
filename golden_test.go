package chiaroscuro

import (
	"context"
	"math"
	"testing"
)

// The golden bit patterns below were captured from the pre-Job
// implementations (commit db5a48c, where Cluster/ClusterDP/Run/
// RunNetworked were standalone code paths), so these tests pin the
// engine against the historical releases — not against itself. Where a
// default has moved since, the test sets the historical value
// explicitly, so the pinned numerics keep their history. The simulated
// and networked bits were recaptured once, when the dissemination
// started electing the one perturbed vector every participant decrypts
// and the release filter became one function (kmeans.Filter); the
// accounting did not move.

// goldenBits asserts the exact float64 bits of one centroid.
func goldenBits(t *testing.T, tag string, got Series, want []uint64) {
	t.Helper()
	if len(got) < len(want) {
		t.Fatalf("%s: centroid has %d measures, want >= %d", tag, len(got), len(want))
	}
	for j, w := range want {
		if g := math.Float64bits(got[j]); g != w {
			t.Fatalf("%s[%d] = %016x (%v), want %016x (%v)",
				tag, j, g, got[j], w, math.Float64frombits(w))
		}
	}
}

// TestGoldenSimulated pins the full simulated protocol's released
// centroids (and gossip accounting) at the simSetup seed to the exact
// bits the pre-Job implementation released.
func TestGoldenSimulated(t *testing.T) {
	data, opts := simSetup(t)
	job, err := NewJob(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	goldenBits(t, "run centroid 0", res.Centroids[0], []uint64{
		0x402d66521baaac25, 0x402c1cca356b6c77, 0x4027bf7bb030a12b,
		0x4021fa7547b66b91, 0x401a3247f50ef220, 0x40136dc46db380f5,
		0x400c1b474e6119ed, 0x400431dcbbc3908e, 0x3ffd80fd3276ba35,
		0x3ffb039f258a30b2, 0x3ff8fc97ad512f96, 0x3ff8870ebf7bcdf0,
		0x3ff7dbdd00c92bfa, 0x3ff5956814c13a5c, 0x3ff6db84d962945f,
		0x3ff61e6493488380, 0x3ffc75461f6ac556, 0x4001e7a86c70169f,
		0x400b2ad8fc65a52b, 0x4015dc4e2e118abd, 0x401fac6e35f13140,
		0x40250dd546023771, 0x4028fe5152ce3876, 0x402b6857a73e945a,
	})
	if res.AvgMessages != 128 || res.AvgBytes != 3.309568e+06 || res.TotalEpsilon != 75000 {
		t.Fatalf("accounting drifted: msgs %v, bytes %v, epsilon %v",
			res.AvgMessages, res.AvgBytes, res.TotalEpsilon)
	}
}

// TestGoldenCentralizedDP pins the perturbed centralized release at
// seed 3. kmeans.Assign adds fixed blocks of rows in block order, so the
// bits are the same at every core count; CI checks them at 1, 2 and 4
// (go test -cpu 1,2,4).
func TestGoldenCentralizedDP(t *testing.T) {
	data, _ := GenerateCER(2000, 1)
	job, err := NewJob(data, Options{
		Mode: CentralizedDP, InitCentroids: SeedCentroids("cer", 6, 2),
		Epsilon: math.Ln2, DMin: CERMin, DMax: CERMax, Smooth: true,
		MaxIterations: 4, Churn: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	goldenBits(t, "clusterdp centroid 0", res.Centroids[0], []uint64{
		0xc048a7c702304dbf, 0xc04c38f9a66e61ee, 0xc043fef5416e2263,
		0xc0382dfedb6ca91d, 0xc02ff65ff7e7056a, 0xc008d52c638dbedb,
	})
}

// TestGoldenNetworked pins the real-TCP release at seed 33. The phase
// lengths are the 14/16 cycles the slack formula gave 10 participants
// when the bits were captured: shorter derived lengths start the
// decryption at other draws of the one schedule stream, which can
// change the release, and always change the accounting.
func TestGoldenNetworked(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	data, _ := GenerateCER(10, 11)
	scheme, err := NewTestScheme(128, 4, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(data, Options{
		Mode: Networked, Scheme: scheme,
		K: 2, InitCentroids: SeedCentroids("cer", 2, 12),
		DMin: CERMin, DMax: CERMax,
		Epsilon: 1e4, MaxIterations: 1, Exchanges: 10,
		DissCycles: 14, DecryptCycles: 16,
		FracBits: 24, Seed: 33, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	goldenBits(t, "networked centroid 0", res.Centroids[0], []uint64{
		0x3ff16e3b886b3286, 0x3ff24b7f05abcf9f, 0x3fe69990f9543c1e,
		0x3ff0d85cd8016777, 0x3ff9797662a3fdf9, 0x4005c34ac6f7ded9,
	})
	if res.AvgMessages != 80 || res.AvgBytes != 166400 {
		t.Fatalf("accounting drifted: msgs %v, bytes %v", res.AvgMessages, res.AvgBytes)
	}
}
