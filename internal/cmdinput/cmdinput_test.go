package cmdinput

import (
	"path/filepath"
	"slices"
	"testing"

	"chiaroscuro"
)

// TestLoadDataMatchesGenerators: a generated dataset is the library
// generator's for the same size and seed, series for series, and a CSV
// file round-trips with its own range.
func TestLoadDataMatchesGenerators(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func(int, uint64) (*chiaroscuro.Dataset, []int)
	}{{"cer", chiaroscuro.GenerateCER}, {"numed", chiaroscuro.GenerateNUMED}} {
		got, _, _, kind, err := LoadData("", c.name, 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := c.gen(40, 7)
		if kind != c.name || got.Len() != want.Len() {
			t.Fatalf("%s: %d series of kind %q, want %d of %q", c.name, got.Len(), kind, want.Len(), c.name)
		}
		for i := 0; i < want.Len(); i++ {
			if !slices.Equal(got.Row(i), want.Row(i)) {
				t.Fatalf("%s: series %d differs from the generator's", c.name, i)
			}
		}
	}
	if _, _, _, _, err := LoadData("", "a4", 40, 7); err == nil {
		t.Error("an unknown dataset loaded")
	}

	want, _ := chiaroscuro.GenerateCER(5, 3)
	path := filepath.Join(t.TempDir(), "cer.csv")
	if err := chiaroscuro.SaveCSV(path, want); err != nil {
		t.Fatal(err)
	}
	got, dmin, dmax, kind, err := LoadData(path, "numed", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := want.Range(); got.Len() != want.Len() || dmin != lo || dmax != hi || kind != "cer" {
		t.Fatalf("CSV loaded %d series in [%g, %g] as %q, want %d in [%g, %g] as \"cer\"", got.Len(), dmin, dmax, kind, want.Len(), lo, hi)
	}
}
