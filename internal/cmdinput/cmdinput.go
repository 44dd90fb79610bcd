// Package cmdinput loads the dataset a command-line front end clusters:
// a CSV file, or one of the library's built-in generators, drawn exactly
// as chiaroscuro.GenerateCER and GenerateNUMED draw it for the seed.
package cmdinput

import (
	"fmt"

	"chiaroscuro"
)

// LoadData returns the series in csvPath, or else size series of the
// named generator ("cer" or "numed") from seed, with the range of their
// measures and the generator family its data-independent seeds come
// from (chiaroscuro.SeedCentroids). A CSV file's range is its own, and
// it is seeded as "cer".
func LoadData(csvPath, dataset string, size int, seed uint64) (d *chiaroscuro.Dataset, dmin, dmax float64, kind string, err error) {
	if csvPath != "" {
		d, err = chiaroscuro.LoadCSV(csvPath)
		if err != nil {
			return nil, 0, 0, "", err
		}
		dmin, dmax = d.Range()
		return d, dmin, dmax, "cer", nil
	}
	switch dataset {
	case "cer":
		d, _ = chiaroscuro.GenerateCER(size, seed)
		return d, chiaroscuro.CERMin, chiaroscuro.CERMax, "cer", nil
	case "numed":
		d, _ = chiaroscuro.GenerateNUMED(size, seed)
		return d, chiaroscuro.NUMEDMin, chiaroscuro.NUMEDMax, "numed", nil
	}
	return nil, 0, 0, "", fmt.Errorf("unknown dataset %q", dataset)
}
