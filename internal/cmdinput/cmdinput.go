// Package cmdinput loads the dataset a command-line front end clusters:
// a CSV file, or one of the library's built-in generators, drawn exactly
// as chiaroscuro.GenerateCER and GenerateNUMED draw it for the seed.
package cmdinput

import (
	"errors"
	"fmt"
	"math"

	"chiaroscuro"
)

// LoadData returns the series in csvPath, or else size series of the
// named generator ("cer" or "numed") from seed, with the measure range
// the run calibrates its noise to and the generator family its
// data-independent seeds come from (chiaroscuro.SeedCentroids). The
// range is [dmin, dmax], a bound left NaN taking the generator's. A CSV
// file needs both bounds: a range read from the file would make the
// noise scale a function of everyone's private data. A CSV file is
// seeded as "cer".
func LoadData(csvPath, dataset string, size int, seed uint64, dmin, dmax float64) (d *chiaroscuro.Dataset, lo, hi float64, kind string, err error) {
	switch {
	case csvPath != "":
		if math.IsNaN(dmin) || math.IsNaN(dmax) {
			return nil, 0, 0, "", errors.New("a CSV file needs the range of its measures: set -dmin and -dmax")
		}
		if d, err = chiaroscuro.LoadCSV(csvPath); err != nil {
			return nil, 0, 0, "", err
		}
		kind = "cer"
	case dataset == "cer":
		d, _ = chiaroscuro.GenerateCER(size, seed)
		lo, hi, kind = chiaroscuro.CERMin, chiaroscuro.CERMax, dataset
	case dataset == "numed":
		d, _ = chiaroscuro.GenerateNUMED(size, seed)
		lo, hi, kind = chiaroscuro.NUMEDMin, chiaroscuro.NUMEDMax, dataset
	default:
		return nil, 0, 0, "", fmt.Errorf("unknown dataset %q", dataset)
	}
	if !math.IsNaN(dmin) {
		lo = dmin
	}
	if !math.IsNaN(dmax) {
		hi = dmax
	}
	return d, lo, hi, kind, nil
}
