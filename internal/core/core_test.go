package core

import (
	"math"
	"math/big"
	"testing"

	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// blobs builds np series of length n around nBlobs well-separated
// centers, plus the centers themselves (ground truth).
func blobs(np, n, nBlobs int, seed uint64) (*timeseries.Dataset, []timeseries.Series) {
	rng := randx.New(seed, seed)
	centers := make([]timeseries.Series, nBlobs)
	for b := range centers {
		c := make(timeseries.Series, n)
		for j := range c {
			c[j] = float64(10 + 20*b)
		}
		centers[b] = c
	}
	d := timeseries.NewDataset(n)
	for i := 0; i < np; i++ {
		c := centers[i%nBlobs]
		row := make(timeseries.Series, n)
		for j := range row {
			row[j] = c[j] + rng.Gaussian(0, 0.5)
		}
		d.Append(row)
	}
	return d, centers
}

// offSeeds returns data-independent seeds displaced from the truth.
func offSeeds(centers []timeseries.Series, off float64) []timeseries.Series {
	out := make([]timeseries.Series, len(centers))
	for i, c := range centers {
		s := c.Clone()
		for j := range s {
			s[j] += off
		}
		out[i] = s
	}
	return out
}

func TestProtocolMatchesCentralizedLowNoise(t *testing.T) {
	// With a huge ε the DP noise is negligible and the fully distributed
	// protocol must land on the same centroids as centralized k-means,
	// up to gossip approximation error.
	const np, n, k = 32, 6, 2
	data, centers := blobs(np, n, k, 51)
	seeds := offSeeds(centers, 3)
	sch, err := plain.New(nil, 256, np, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K:             k,
		InitCentroids: seeds,
		DMin:          0, DMax: 60,
		Epsilon:       1e6,
		MaxIterations: 3,
		Exchanges:     25,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := kmeans.Run(data, kmeans.Config{
		InitCentroids: seeds, MaxIterations: 3, Threshold: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != len(ref.Centroids) {
		t.Fatalf("protocol kept %d centroids, centralized %d", len(res.Centroids), len(ref.Centroids))
	}
	for c := range res.Centroids {
		if d := res.Centroids[c].Dist(ref.Centroids[c]); d > 0.05 {
			t.Errorf("centroid %d: protocol %.4v vs centralized %.4v (dist %v)",
				c, res.Centroids[c], ref.Centroids[c], d)
		}
	}
	if res.TotalEpsilon > 1e6 {
		t.Errorf("budget exceeded: %v", res.TotalEpsilon)
	}
	if res.AvgMessages <= 0 {
		t.Error("no messages accounted")
	}
}

func TestParticipantsAgree(t *testing.T) {
	// The unicity argument of Section 4.2.3, made exact: every
	// participant decrypts the one elected vector, so every decoded view
	// is bit-identical; the simulator fails the run on one that is not.
	const np, n, k = 24, 4, 2
	data, centers := blobs(np, n, k, 52)
	sch, err := plain.New(nil, 256, np, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K:             k,
		InitCentroids: offSeeds(centers, 2),
		DMin:          0, DMax: 60,
		Epsilon:       1e6,
		MaxIterations: 2,
		Exchanges:     25,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolWithRealCrypto(t *testing.T) {
	// Full end-to-end with genuine threshold Damgård–Jurik: 10
	// participants, one key-share each, threshold 4, degree s=3 for
	// plaintext headroom.
	const np, n, k = 10, 4, 2
	data, centers := blobs(np, n, k, 53)
	sch, err := damgardjurik.NewTestScheme(128, 3, np, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K:             k,
		InitCentroids: offSeeds(centers, 2),
		DMin:          0, DMax: 60,
		Epsilon:       1e6, // negligible noise: this test checks the crypto path
		MaxIterations: 2,
		Exchanges:     15,
		FracBits:      24,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != k {
		t.Fatalf("kept %d centroids, want %d", len(res.Centroids), k)
	}
	// Centroids must sit near the true blob centers.
	for c, ctr := range res.Centroids {
		want := centers[c]
		if d := ctr.Dist(want); d > 1.5 {
			t.Errorf("centroid %d = %.3v, want near %.3v (dist %v)", c, ctr, want, d)
		}
	}
}

func TestDPNoiseActuallyApplied(t *testing.T) {
	// With a small ε the released centroids must differ measurably from
	// the exact means: privacy is not free.
	const np, n, k = 32, 6, 2
	data, centers := blobs(np, n, k, 54)
	seeds := offSeeds(centers, 1)
	run := func(eps float64) []timeseries.Series {
		sch, err := plain.New(nil, 256, np, 3)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := NewNetwork(data, sch, Config{
			K:             k,
			InitCentroids: seeds,
			DMin:          0, DMax: 60,
			Epsilon:       eps,
			MaxIterations: 1,
			Exchanges:     25,
			Seed:          4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Centroids
	}
	noisy := run(math.Ln2)
	clean := run(1e9)
	if len(noisy) == 0 {
		t.Skip("all centroids lost under noise at this tiny scale; acceptable")
	}
	var moved float64
	for c := range noisy {
		if c < len(clean) {
			moved += noisy[c].Dist(clean[c])
		}
	}
	if moved < 1e-3 {
		t.Errorf("ε=ln2 centroids identical to ε=1e9 centroids; noise path inert")
	}
}

func TestProtocolUnderChurn(t *testing.T) {
	const np, n, k = 40, 4, 2
	data, centers := blobs(np, n, k, 55)
	sch, err := plain.New(nil, 256, np, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K:             k,
		InitCentroids: offSeeds(centers, 2),
		DMin:          0, DMax: 60,
		Epsilon:       1e6,
		MaxIterations: 2,
		Exchanges:     40, // more cycles to absorb 25% churn
		Seed:          5,
		Churn:         0.25,
		MidFailure:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Correctness under churn (Section 2.3): terminates, >= 1 centroid.
	if len(res.Centroids) == 0 {
		t.Fatal("churn destroyed all centroids")
	}
	for c, ctr := range res.Centroids {
		if c < len(centers) {
			if d := ctr.Dist(centers[c]); d > 5 {
				t.Errorf("churn centroid %d drifted %v from truth", c, d)
			}
		}
	}
}

func TestBudgetStrategyStopsIterations(t *testing.T) {
	const np, n, k = 16, 4, 2
	data, centers := blobs(np, n, k, 56)
	sch, err := plain.New(nil, 256, np, 2)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K:             k,
		InitCentroids: offSeeds(centers, 1),
		DMin:          0, DMax: 60,
		Epsilon:       1e5,
		Budget:        dp.UniformFast{Eps: 1e5, Limit: 2},
		MaxIterations: 10,
		Exchanges:     20,
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Errorf("UF(2) ran %d iterations, want 2", len(res.Traces))
	}
	if res.TotalEpsilon > 1e5*(1+1e-9) {
		t.Errorf("spent %v > ε", res.TotalEpsilon)
	}
}

func TestTraceQuality(t *testing.T) {
	const np, n, k = 24, 4, 2
	data, centers := blobs(np, n, k, 57)
	sch, err := plain.New(nil, 256, np, 2)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K:             k,
		InitCentroids: offSeeds(centers, 2),
		DMin:          0, DMax: 60,
		Epsilon:       1e6,
		MaxIterations: 2,
		Exchanges:     20,
		Seed:          7,
		TraceQuality:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Traces {
		if tr.PreInertia <= 0 {
			t.Errorf("iteration %d: no quality trace", tr.Iteration)
		}
		if tr.PostInertia < tr.PreInertia-1e-9 {
			t.Errorf("iteration %d: POST %v < PRE %v", tr.Iteration, tr.PostInertia, tr.PreInertia)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	data, centers := blobs(8, 4, 2, 58)
	sch, _ := plain.New(nil, 256, 8, 2)
	base := Config{
		K: 2, InitCentroids: offSeeds(centers, 1),
		DMin: 0, DMax: 60, Epsilon: 1,
	}
	if _, err := NewNetwork(timeseries.NewDataset(4), sch, base); err == nil {
		t.Error("empty dataset must fail")
	}
	bad := base
	bad.InitCentroids = nil
	if _, err := NewNetwork(data, sch, bad); err == nil {
		t.Error("no centroids must fail")
	}
	bad = base
	bad.InitCentroids = []timeseries.Series{{1, 2}} // wrong length
	if _, err := NewNetwork(data, sch, bad); err == nil {
		t.Error("wrong centroid length must fail")
	}
	bad = base
	bad.Epsilon = 0
	if _, err := NewNetwork(data, sch, bad); err == nil {
		t.Error("zero epsilon must fail")
	}
	small, _ := plain.New(nil, 256, 4, 2) // fewer shares than participants
	if _, err := NewNetwork(data, small, base); err == nil {
		t.Error("too few key-shares must fail")
	}
	// Tiny plaintext space must be rejected by the headroom check.
	tiny, _ := plain.New(new(big.Int).Lsh(big.NewInt(1), 48), 256, 8, 2)
	if _, err := NewNetwork(data, tiny, base); err == nil {
		t.Error("insufficient plaintext headroom must fail")
	}
}

func TestProtocolWithNewscastSampler(t *testing.T) {
	// The paper's connectivity layer: the full protocol over bounded
	// Newscast views (size 30) instead of idealized uniform sampling.
	const np, n, k = 40, 4, 2
	data, centers := blobs(np, n, k, 81)
	sch, err := plain.New(nil, 256, np, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K:             k,
		InitCentroids: offSeeds(centers, 2),
		DMin:          0, DMax: 60,
		Epsilon:       1e6,
		MaxIterations: 2,
		Exchanges:     30,
		Seed:          82,
		Newscast:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != k {
		t.Fatalf("newscast run kept %d centroids, want %d", len(res.Centroids), k)
	}
	for c, ctr := range res.Centroids {
		if d := ctr.Dist(centers[c]); d > 2 {
			t.Errorf("centroid %d drifted %v from truth under newscast sampling", c, d)
		}
	}
}

func TestNoiseShareUnderestimateEndToEnd(t *testing.T) {
	// nν below the true population: the counter-based surplus correction
	// (Section 4.2.2) must keep the protocol correct.
	const np, n, k = 30, 4, 2
	data, centers := blobs(np, n, k, 83)
	sch, err := plain.New(nil, 256, np, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K:             k,
		InitCentroids: offSeeds(centers, 2),
		DMin:          0, DMax: 60,
		Epsilon:       1e6,
		MaxIterations: 2,
		Exchanges:     25,
		Seed:          84,
		NoiseShares:   20, // underestimate of 30 participants
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != k {
		t.Fatalf("kept %d centroids, want %d", len(res.Centroids), k)
	}
	for _, tr := range res.Traces {
		if tr.DissCycles == 0 {
			t.Errorf("iteration %d: no correction dissemination despite nν underestimate", tr.Iteration)
		}
	}
}
