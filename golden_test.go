package chiaroscuro

import (
	"context"
	"math"
	"runtime"
	"testing"
)

// The golden bit patterns below were captured from the pre-Job
// implementations (commit db5a48c, where Cluster/ClusterDP/Run/
// RunNetworked were standalone code paths), so these tests pin the
// engine against the historical releases — not against itself. Where a
// default has moved since, the test sets the historical value
// explicitly, so the pinned numerics keep their history.

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
		0x402d665229d28018, 0x402c1cca388129fb, 0x4027bf7ba3458795,
		0x4021fa75272da737, 0x401a3247a02b901b, 0x40136dc4295b5611,
		0x400c1b46e8c63ffe, 0x400431dc93c0afa1, 0x3ffd80fd1351288d,
		0x3ffb039f2307d1b3, 0x3ff8fc97b1235ac9, 0x3ff8870ef3b7b821,
		0x3ff7dbdcff066500, 0x3ff595682f110dc5, 0x3ff6db84ebbe4312,
		0x3ff61e6485dd7a62, 0x3ffc75462cdef28c, 0x4001e7a85dadb763,
		0x400b2ad8e39dd81d, 0x4015dc4e1965fc92, 0x401fac6e3bee05ef,
		0x40250dd554dd1236, 0x4028fe516c9098f5, 0x402b6857bf909f84,
	})
	if res.AvgMessages != 128 || res.AvgBytes != 3.309568e+06 || res.TotalEpsilon != 75000 {
		t.Fatalf("accounting drifted: msgs %v, bytes %v, epsilon %v",
			res.AvgMessages, res.AvgBytes, res.TotalEpsilon)
	}
}

// TestGoldenCentralizedDP pins the perturbed centralized release at
// seed 3. kmeans.Assign splits its float reduction by GOMAXPROCS, so
// the exact bits depend on the core count: the golden bits were
// captured on one core and are checked there; the release at the
// machine's own core count must agree with them to rounding (ROADMAP
// tracks making the reduction core-count-independent).
func TestGoldenCentralizedDP(t *testing.T) {
	data, _ := GenerateCER(2000, 1)
	run := func() Series {
		t.Helper()
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
		return res.Centroids[0]
	}
	atDefault := run()
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	pinned := run()
	goldenBits(t, "clusterdp centroid 0", pinned, []uint64{
		0xc048a7c702304dbf, 0xc04c38f9a66e61ee, 0xc043fef5416e2263,
		0xc0382dfedb6ca91d, 0xc02ff65ff7e7056a, 0xc008d52c638dbedb,
	})
	for j, want := range pinned {
		if diff := math.Abs(atDefault[j] - want); diff > 1e-12*math.Abs(want) {
			t.Fatalf("clusterdp centroid 0[%d] at %d procs = %v, one-core release %v (relative gap %g)",
				j, procs, atDefault[j], want, diff/math.Abs(want))
		}
	}
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
		0x3ff16e5a9031355f, 0x3ff24272be2e4f53, 0x3fe69beac87e47f5,
		0x3ff0d9ce59a781dd, 0x3ff97bb83890cea3, 0x4005c3ef78d6161c,
	})
	if res.AvgMessages != 80 || res.AvgBytes != 166400 {
		t.Fatalf("accounting drifted: msgs %v, bytes %v", res.AvgMessages, res.AvgBytes)
	}
}
