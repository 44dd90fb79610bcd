package cmdinput

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"chiaroscuro"
)

// TestLoadDataMatchesGenerators: a generated dataset is the library
// generator's for the same size and seed, series for series, with the
// generator's range unless a bound is given, and a CSV file round-trips
// with the range given for it, never one read from its data.
func TestLoadDataMatchesGenerators(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name   string
		gen    func(int, uint64) (*chiaroscuro.Dataset, []int)
		lo, hi float64
	}{{"cer", chiaroscuro.GenerateCER, chiaroscuro.CERMin, chiaroscuro.CERMax}, {"numed", chiaroscuro.GenerateNUMED, chiaroscuro.NUMEDMin, chiaroscuro.NUMEDMax}} {
		got, lo, hi, kind, err := LoadData("", c.name, 40, 7, nan, nan)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := c.gen(40, 7)
		if kind != c.name || got.Len() != want.Len() || lo != c.lo || hi != c.hi {
			t.Fatalf("%s: %d series in [%g, %g] of kind %q, want %d in [%g, %g] of %q", c.name, got.Len(), lo, hi, kind, want.Len(), c.lo, c.hi, c.name)
		}
		for i := 0; i < want.Len(); i++ {
			if !slices.Equal(got.Row(i), want.Row(i)) {
				t.Fatalf("%s: series %d differs from the generator's", c.name, i)
			}
		}
	}
	if _, lo, hi, _, _ := LoadData("", "cer", 4, 7, -1, nan); lo != -1 || hi != chiaroscuro.CERMax {
		t.Errorf("cer with -dmin -1: range [%g, %g], want [-1, %g]", lo, hi, chiaroscuro.CERMax)
	}
	if _, _, _, _, err := LoadData("", "a4", 40, 7, nan, nan); err == nil {
		t.Error("an unknown dataset loaded")
	}

	want, _ := chiaroscuro.GenerateCER(5, 3)
	path := filepath.Join(t.TempDir(), "cer.csv")
	if err := chiaroscuro.SaveCSV(path, want); err != nil {
		t.Fatal(err)
	}
	got, dmin, dmax, kind, err := LoadData(path, "numed", 0, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || dmin != 0 || dmax != 100 || kind != "cer" {
		t.Fatalf("CSV loaded %d series in [%g, %g] as %q, want %d in [0, 100] as \"cer\"", got.Len(), dmin, dmax, kind, want.Len())
	}
}

// TestLoadDataRefusesCSVWithoutRange: a CSV file with either bound
// missing is refused rather than given its data's own range.
func TestLoadDataRefusesCSVWithoutRange(t *testing.T) {
	d, _ := chiaroscuro.GenerateCER(5, 3)
	path := filepath.Join(t.TempDir(), "cer.csv")
	if err := chiaroscuro.SaveCSV(path, d); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, r := range [][2]float64{{nan, nan}, {0, nan}, {nan, 100}} {
		if _, _, _, _, err := LoadData(path, "cer", 0, 0, r[0], r[1]); err == nil {
			t.Errorf("a CSV file loaded with range [%g, %g]", r[0], r[1])
		}
	}
}
