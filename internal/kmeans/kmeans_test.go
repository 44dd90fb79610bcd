package kmeans

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// twoBlobs builds a dataset with two obvious clusters around 0 and 10.
func twoBlobs(t *testing.T, n int) *timeseries.Dataset {
	t.Helper()
	rng := randx.New(1, 1)
	d := timeseries.NewDataset(2)
	for i := 0; i < n; i++ {
		c := 0.0
		if i%2 == 1 {
			c = 10
		}
		d.Append(timeseries.Series{c + rng.Gaussian(0, 0.3), c + rng.Gaussian(0, 0.3)})
	}
	return d
}

func TestAssignBasic(t *testing.T) {
	d := twoBlobs(t, 1000)
	cents := []timeseries.Series{{0, 0}, {10, 10}}
	a, err := Assign(d, cents)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts[0] != 500 || a.Counts[1] != 500 {
		t.Errorf("counts = %v, want [500 500]", a.Counts)
	}
	means := a.Means()
	if means[0].Dist(timeseries.Series{0, 0}) > 0.2 {
		t.Errorf("mean 0 = %v, want near origin", means[0])
	}
	if means[1].Dist(timeseries.Series{10, 10}) > 0.2 {
		t.Errorf("mean 1 = %v, want near (10,10)", means[1])
	}
}

func TestAssignNoCentroids(t *testing.T) {
	d := twoBlobs(t, 10)
	if _, err := Assign(d, nil); err != ErrNoCentroids {
		t.Errorf("err = %v, want ErrNoCentroids", err)
	}
}

func TestAssignMatchesSerial(t *testing.T) {
	// The parallel assignment must agree with a simple serial one.
	rng := randx.New(2, 2)
	d, _ := datasets.GenerateCER(2000, rng)
	cents := datasets.SeedCentroids("cer", 7, rng)
	a, err := Assign(d, cents)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, len(cents))
	var sse float64
	for i := 0; i < d.Len(); i++ {
		row := d.Row(i)
		best, bestD2 := 0, math.Inf(1)
		for c, ctr := range cents {
			if d2 := row.Dist2(ctr); d2 < bestD2 {
				best, bestD2 = c, d2
			}
		}
		counts[best]++
		sse += bestD2
	}
	for c := range counts {
		if counts[c] != a.Counts[c] {
			t.Errorf("cluster %d count %d != serial %d", c, a.Counts[c], counts[c])
		}
	}
	if math.Abs(sse-a.SSE)/sse > 1e-9 {
		t.Errorf("SSE %v != serial %v", a.SSE, sse)
	}
}

// TestAssignBitsIndependentOfCores runs Assign over a dataset of
// several blocks and a partial one at GOMAXPROCS 1, 2, 3, 4 and 7: every
// sum, count and squared sum must carry the same bits at each.
func TestAssignBitsIndependentOfCores(t *testing.T) {
	rng := randx.New(4, 4)
	d, _ := datasets.GenerateCER(4*assignBlock+123, rng)
	cents := datasets.SeedCentroids("cer", 5, rng)
	bits := func(a *Assignment) []uint64 {
		out := []uint64{math.Float64bits(a.SSE)}
		for c := range a.Sums {
			out = append(out, uint64(a.Counts[c]), math.Float64bits(a.SqSums[c]))
			for _, v := range a.Sums[c] {
				out = append(out, math.Float64bits(v))
			}
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []uint64
	for _, procs := range []int{1, 2, 3, 4, 7} {
		runtime.GOMAXPROCS(procs)
		a, err := Assign(d, cents)
		if err != nil {
			t.Fatal(err)
		}
		got := bits(a)
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("Assign at GOMAXPROCS %d differs from GOMAXPROCS 1", procs)
		}
	}
}

func TestEmptyClusterBecomesLost(t *testing.T) {
	d := twoBlobs(t, 100)
	cents := []timeseries.Series{{0, 0}, {10, 10}, {1e6, 1e6}}
	a, err := Assign(d, cents)
	if err != nil {
		t.Fatal(err)
	}
	means := a.Means()
	if means[2] != nil {
		t.Errorf("far-away centroid should be lost, got %v", means[2])
	}
	if got := len(Compact(means)); got != 2 {
		t.Errorf("live means = %d, want 2", got)
	}
}

func TestRunConvergesTwoBlobs(t *testing.T) {
	d := twoBlobs(t, 2000)
	res, err := Run(d, Config{
		InitCentroids: []timeseries.Series{{2, 2}, {7, 7}},
		Threshold:     1e-6,
		MaxIterations: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence")
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	// Correctness (Section 2.3): terminated and produced >= 1 centroid.
	q, err := IntraInertia(d, res.Centroids)
	if err != nil {
		t.Fatal(err)
	}
	if q > 0.5 {
		t.Errorf("final inertia %v too high for trivially separable data", q)
	}
}

func TestInertiaMonotoneNonIncreasing(t *testing.T) {
	// Lloyd's algorithm never increases the objective.
	rng := randx.New(3, 3)
	d, _ := datasets.GenerateCER(3000, rng)
	res, err := Run(d, Config{
		InitCentroids: datasets.SeedCentroids("cer", 12, rng),
		Threshold:     1e-9,
		MaxIterations: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Stats); i++ {
		if res.Stats[i].IntraInertia > res.Stats[i-1].IntraInertia+1e-9 {
			t.Errorf("inertia increased at iteration %d: %v -> %v",
				i+1, res.Stats[i-1].IntraInertia, res.Stats[i].IntraInertia)
		}
	}
}

func TestFullInertiaDecomposition(t *testing.T) {
	// Definition 1: q_intra + q_inter == q (constant), for the clustering
	// induced by any centroid set, when centroids are the cluster means.
	rng := randx.New(4, 4)
	d, _ := datasets.GenerateCER(1500, rng)
	res, err := Run(d, Config{
		InitCentroids: datasets.SeedCentroids("cer", 8, rng),
		Threshold:     1e-9, MaxIterations: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	intra, err := IntraInertia(d, res.Centroids)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := interInertia(d, res.Centroids)
	if err != nil {
		t.Fatal(err)
	}
	full := d.FullInertia()
	if math.Abs(intra+inter-full)/full > 0.02 {
		t.Errorf("decomposition broken: intra %v + inter %v != full %v", intra, inter, full)
	}
}

func TestMaxShift(t *testing.T) {
	old := []timeseries.Series{{0, 0}, {1, 1}, nil}
	new_ := []timeseries.Series{{3, 4}, {1, 1}, {9, 9}}
	if got := MaxShift(old, new_); got != 5 {
		t.Errorf("MaxShift = %v, want 5", got)
	}
	if got := MaxShift(nil, nil); got != 0 {
		t.Errorf("MaxShift(nil,nil) = %v, want 0", got)
	}
}

func TestCompact(t *testing.T) {
	in := []timeseries.Series{nil, {1}, nil, {2}}
	out := Compact(in)
	if len(out) != 2 || out[0][0] != 1 || out[1][0] != 2 {
		t.Errorf("Compact = %v", out)
	}
}

func TestRunTerminatesQuick(t *testing.T) {
	// Termination property: Run always halts within MaxIterations and
	// returns at least one centroid, whatever (sane) seeds it is given.
	rng := randx.New(5, 5)
	d, _ := datasets.GenerateNUMED(400, rng)
	f := func(seedA, seedB uint8) bool {
		c1 := d.Row(int(seedA) % d.Len()).Clone()
		c2 := d.Row(int(seedB) % d.Len()).Clone()
		res, err := Run(d, Config{
			InitCentroids: []timeseries.Series{c1, c2},
			Threshold:     1e-3,
			MaxIterations: 30,
		})
		return err == nil && len(res.Centroids) >= 1 && len(res.Stats) <= 30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRunEmptyDataset(t *testing.T) {
	d := timeseries.NewDataset(2)
	if _, err := Run(d, Config{InitCentroids: []timeseries.Series{{0, 0}}}); err == nil {
		t.Error("Run on empty dataset should error")
	}
}

func BenchmarkAssignCER10k(b *testing.B) {
	rng := randx.New(7, 7)
	d, _ := datasets.GenerateCER(10000, rng)
	cents := datasets.SeedCentroids("cer", 50, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assign(d, cents); err != nil {
			b.Fatal(err)
		}
	}
}

// interInertia returns the inter-cluster inertia q_inter of Definition 1:
// the cardinality-weighted mean squared distance of each centroid to the
// global center of mass g.
func interInertia(d *timeseries.Dataset, centroids []timeseries.Series) (float64, error) {
	live := Compact(centroids)
	a, err := Assign(d, live) // ErrNoCentroids when none is live
	if err != nil {
		return 0, err
	}
	g := d.Centroid()
	var q float64
	for c, ctr := range live {
		q += float64(a.Counts[c]) / float64(d.Len()) * ctr.Dist2(g)
	}
	return q, nil
}
