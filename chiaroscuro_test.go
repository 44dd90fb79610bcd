package chiaroscuro

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: generate data, cluster three
	// ways, compare.
	data, _ := GenerateCER(4000, 1)
	seeds := SeedCentroids("cer", 8, 2)

	base, err := runMode(data, Centralized, Options{InitCentroids: seeds, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Centroids) == 0 || !withinRange(base.Centroids, CERMin, CERMax) {
		t.Fatal("baseline produced no plausible centroids")
	}

	private, err := runMode(data, CentralizedDP, Options{
		InitCentroids: seeds,
		Budget:        Greedy(math.Ln2),
		DMin:          CERMin, DMax: CERMax,
		Smooth:        true,
		MaxIterations: 5,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if private.TotalEpsilon > math.Ln2*(1+1e-9) {
		t.Errorf("privacy budget exceeded: %v", private.TotalEpsilon)
	}

	// Distributed run at a small population with simulated encryption.
	small, _ := GenerateCER(64, 4)
	scheme, err := NewSimulationScheme(256, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	netRes, err := runMode(small, Simulated, Options{
		Scheme:        scheme,
		K:             4,
		InitCentroids: SeedCentroids("cer", 4, 5),
		DMin:          CERMin, DMax: CERMax,
		Epsilon:       1e5, // demo: negligible noise
		MaxIterations: 2,
		Exchanges:     25,
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(netRes.Centroids) == 0 {
		t.Fatal("distributed run produced no centroids")
	}
	if netRes.AvgMessages <= 0 {
		t.Error("no gossip messages accounted")
	}
}

func withinRange(cs []Series, lo, hi float64) bool {
	for _, c := range cs {
		if !c.InRange(lo-(hi-lo), hi+(hi-lo)) {
			return false
		}
	}
	return true
}

func TestPublicBudgets(t *testing.T) {
	for _, b := range []Budget{Greedy(0.69), GreedyFloor(0.69, 4), UniformFast(0.69, 5)} {
		var total float64
		for it := 1; it <= 100; it++ {
			total += b.Epsilon(it)
		}
		if total > 0.69*(1+1e-9) {
			t.Errorf("%s overspends: %v", b.Name(), total)
		}
	}
}

func TestPublicGenerators(t *testing.T) {
	cer, labels := GenerateCER(100, 7)
	if cer.Len() != 100 || cer.Dim() != CERLen || len(labels) != 100 {
		t.Error("CER generator shape")
	}
	numed, _ := GenerateNUMED(100, 7)
	if numed.Dim() != NUMEDLen {
		t.Error("NUMED generator shape")
	}
	if lo, hi := numed.Range(); lo < NUMEDMin || hi > NUMEDMax {
		t.Error("NUMED range")
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	d, _ := GenerateNUMED(20, 8)
	if err := SaveCSV(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 20 || got.Dim() != NUMEDLen {
		t.Error("round trip shape")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestFromSeriesAndDataset(t *testing.T) {
	d, err := FromSeries([]Series{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Error("FromSeries")
	}
	nd := NewDataset(3)
	nd.Append(Series{1, 2, 3})
	if nd.Dim() != 3 {
		t.Error("NewDataset")
	}
}

func TestNewDamgardJurikTestScheme(t *testing.T) {
	s, err := NewTestScheme(128, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Threshold() != 3 || s.NumShares() != 5 {
		t.Error("test scheme parameters")
	}
	if _, err := NewTestScheme(100, 1, 5, 3); err == nil {
		t.Error("unsupported key size must fail")
	}
}
