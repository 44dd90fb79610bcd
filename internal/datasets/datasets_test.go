package datasets

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"chiaroscuro/internal/randx"
)

func TestGenerateCERShape(t *testing.T) {
	rng := randx.New(1, 1)
	d, labels := GenerateCER(5000, rng)
	if d.Len() != 5000 || d.Dim() != CERLen {
		t.Fatalf("CER shape = %dx%d", d.Len(), d.Dim())
	}
	lo, hi := d.Range()
	if lo < CERMin || hi > CERMax {
		t.Errorf("CER range [%v,%v] outside [%v,%v]", lo, hi, CERMin, CERMax)
	}
	if len(labels) != 5000 {
		t.Fatalf("labels len = %d", len(labels))
	}
	// The mixture must be strongly concentrated: largest archetype well
	// above the smallest.
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	if len(counts) < 6 {
		t.Errorf("only %d archetypes appeared in 5000 draws", len(counts))
	}
	var sizes []int
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Ints(sizes)
	if sizes[len(sizes)-1] < 8*sizes[0] {
		t.Errorf("CER cluster sizes not concentrated: min=%d max=%d", sizes[0], sizes[len(sizes)-1])
	}
}

func TestGenerateCERDistinctArchetypes(t *testing.T) {
	rng := randx.New(2, 2)
	d, labels := GenerateCER(20000, rng)
	// Per-archetype mean curves should be pairwise well separated,
	// otherwise clustering on this data is meaningless.
	sums := make(map[int][]float64)
	counts := make(map[int]int)
	for i, l := range labels {
		if sums[l] == nil {
			sums[l] = make([]float64, CERLen)
		}
		row := d.Row(i)
		for j, v := range row {
			sums[l][j] += v
		}
		counts[l]++
	}
	var means [][]float64
	for l, s := range sums {
		if counts[l] < 50 {
			continue
		}
		m := make([]float64, CERLen)
		for j := range s {
			m[j] = s[j] / float64(counts[l])
		}
		means = append(means, m)
	}
	for i := 0; i < len(means); i++ {
		for j := i + 1; j < len(means); j++ {
			var d2 float64
			for h := range means[i] {
				diff := means[i][h] - means[j][h]
				d2 += diff * diff
			}
			if math.Sqrt(d2) < 1.0 {
				t.Errorf("archetype mean curves %d and %d nearly identical (dist %v)", i, j, math.Sqrt(d2))
			}
		}
	}
}

func TestGenerateNUMEDShape(t *testing.T) {
	rng := randx.New(3, 3)
	d, labels := GenerateNUMED(6000, rng)
	if d.Len() != 6000 || d.Dim() != NUMEDLen {
		t.Fatalf("NUMED shape = %dx%d", d.Len(), d.Dim())
	}
	lo, hi := d.Range()
	if lo < NUMEDMin || hi > NUMEDMax {
		t.Errorf("NUMED range [%v,%v] outside [%v,%v]", lo, hi, NUMEDMin, NUMEDMax)
	}
	// Balanced regimes: max/min cluster size ratio should stay modest.
	counts := make([]int, len(numedRegimes))
	for _, l := range labels {
		counts[l]++
	}
	sort.Ints(counts)
	if counts[0] == 0 {
		t.Fatal("a NUMED regime never appeared")
	}
	if ratio := float64(counts[len(counts)-1]) / float64(counts[0]); ratio > 2 {
		t.Errorf("NUMED regimes unbalanced: ratio %v > 2", ratio)
	}
}

func TestNUMEDRegimesDiverge(t *testing.T) {
	// Responders should shrink on average, progressors grow.
	rng := randx.New(4, 4)
	d, labels := GenerateNUMED(6000, rng)
	slope := make([]float64, len(numedRegimes))
	n := make([]int, len(numedRegimes))
	for i, l := range labels {
		row := d.Row(i)
		slope[l] += row[NUMEDLen-1] - row[0]
		n[l]++
	}
	// regime 1 = deep-responder, regime 5 = fast-progressor
	if n[1] == 0 || n[5] == 0 {
		t.Skip("regimes missing in sample")
	}
	if slope[1]/float64(n[1]) >= 0 {
		t.Errorf("deep-responder mean slope %v, want negative", slope[1]/float64(n[1]))
	}
	if slope[5]/float64(n[5]) <= 0 {
		t.Errorf("fast-progressor mean slope %v, want positive", slope[5]/float64(n[5]))
	}
}

func TestGenerateA3Base(t *testing.T) {
	rng := randx.New(5, 5)
	d, labels := GenerateA3Base(rng)
	if d.Len() != A3BasePts || d.Dim() != 2 {
		t.Fatalf("A3 base shape = %dx%d", d.Len(), d.Dim())
	}
	counts := make(map[int]int)
	for _, l := range labels {
		counts[l]++
	}
	if len(counts) != A3Clusters {
		t.Fatalf("A3 clusters = %d, want %d", len(counts), A3Clusters)
	}
	for l, c := range counts {
		if c != A3BasePts/A3Clusters {
			t.Errorf("cluster %d has %d points", l, c)
		}
	}
}

func TestReplicateJitter(t *testing.T) {
	rng := randx.New(6, 6)
	base, _ := GenerateA3Base(rng)
	small := base.Subset([]int{0, 1, 2})
	rep := ReplicateJitter(small, 4, 0.5, rng)
	if rep.Len() != 12 {
		t.Fatalf("replicated len = %d, want 12", rep.Len())
	}
	// Jittered copies stay within 0.5 of originals.
	for r := 0; r < 4; r++ {
		for i := 0; i < 3; i++ {
			src, dst := small.Row(i), rep.Row(r*3+i)
			for j := range src {
				if math.Abs(src[j]-dst[j]) > 0.5+1e-12 {
					t.Fatalf("jitter exceeded bound: |%v - %v|", src[j], dst[j])
				}
			}
		}
	}
}

func TestSeedCentroids(t *testing.T) {
	rng := randx.New(7, 7)
	for _, kind := range []string{"cer", "numed", "a3"} {
		seeds := SeedCentroids(kind, 10, rng)
		if len(seeds) != 10 {
			t.Fatalf("%s: %d seeds", kind, len(seeds))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown kind should panic")
		}
	}()
	SeedCentroids("nope", 1, rng)
}

func TestCSVRoundTrip(t *testing.T) {
	rng := randx.New(8, 8)
	d, _ := GenerateCER(50, rng)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.Dim() != d.Dim() {
		t.Fatalf("round trip shape %dx%d, want %dx%d", got.Len(), got.Dim(), d.Len(), d.Dim())
	}
	for i := 0; i < d.Len(); i++ {
		a, b := d.Row(i), got.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty CSV should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("1,x\n")); err == nil {
		t.Error("non-numeric CSV should error")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, _ := GenerateCER(100, randx.New(9, 9))
	b, _ := GenerateCER(100, randx.New(9, 9))
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatal("same-seed CER generation diverged")
			}
		}
	}
}
