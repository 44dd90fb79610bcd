// Package chiaroscuro is a Go implementation of Chiaroscuro (Allard,
// Hébrail, Masseglia, Pacitti — SIGMOD 2015): privacy-preserving k-means
// clustering of personal time-series that are massively distributed on
// personal devices.
//
// Chiaroscuro never centralizes raw series. Each k-means iteration runs
// over the Diptych data structure: cleartext centroids protected by
// (ε,δ)-probabilistic differential privacy on one side, and cluster
// means encrypted under an additively-homomorphic threshold cryptosystem
// (Damgård–Jurik) on the other. Gossip (epidemic) protocols compute the
// encrypted sums, assemble the Laplace noise from per-participant
// noise-shares, and perform the threshold decryption — with no
// coordinator and tolerance to churn.
//
// Every run goes through one Job: NewJob validates a unified Options
// set eagerly (rejecting bad combinations with the typed sentinel
// errors of errors.go), Run executes it under a context.Context —
// cancellation propagates into the gossip and decryption cycle loops
// and shuts the TCP runtimes down cleanly — and Events streams typed
// progress while the run is in flight. The Diptych releases a
// cleartext, differentially private centroid set per iteration by
// design (Section 4 of the paper); the stream surfaces exactly that
// disclosure as it happens (IterationReleased), plus per-cycle phase
// progress and churn. Options.Mode selects one of four backends over
// the same knobs, covering the paper's evaluation methodology:
//
//   - Centralized: plain k-means — the non-private quality baseline;
//   - CentralizedDP: centralized k-means with the paper's
//     differentially private release of each iteration's sums and
//     counts, budget concentration strategies (GREEDY, GREEDY_FLOOR,
//     UNIFORM_FAST) and SMA smoothing — the configuration used for
//     quality experiments at millions of series;
//   - Simulated: the complete distributed protocol over an in-memory
//     cycle engine, with real or simulated encryption;
//   - Networked: the same protocol over real TCP through the binary
//     wire protocol, one peer runtime per series (cmd/chiaroscurod is
//     the one-process-per-participant daemon).
//
// The synthetic workload generators of the evaluation (CER-like smart
// meter data, NUMED-like tumor-growth data, the A3 2-D benchmark) are
// exposed under Generate*.
package chiaroscuro

import (
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// Series is one time-series: a fixed-length sequence of measures.
type Series = timeseries.Series

// Dataset is a set of equal-length series stored densely.
type Dataset = timeseries.Dataset

// NewDataset creates an empty dataset for series of length n.
func NewDataset(n int) *Dataset { return timeseries.NewDataset(n) }

// FromSeries builds a dataset from equal-length series.
func FromSeries(rows []Series) (*Dataset, error) { return timeseries.FromSeries(rows) }

// LoadCSV reads a dataset from a CSV file (one series per row).
func LoadCSV(path string) (*Dataset, error) { return datasets.LoadCSV(path) }

// SaveCSV writes a dataset to a CSV file (one series per row).
func SaveCSV(path string, d *Dataset) error { return datasets.SaveCSV(path, d) }

// Budget distributes the privacy budget ε across k-means iterations
// (Section 5.1 of the paper). Use Greedy, GreedyFloor or UniformFast.
type Budget = dp.Budget

// Greedy returns the GREEDY strategy: iteration i gets ε/2^i.
func Greedy(eps float64) Budget { return dp.Greedy{Eps: eps} }

// GreedyFloor returns the GREEDY_FLOOR strategy with floors of f
// iterations (the paper uses f = 4).
func GreedyFloor(eps float64, f int) Budget { return dp.GreedyFloor{Eps: eps, Floor: f} }

// UniformFast returns the UNIFORM_FAST strategy: ε spread uniformly over
// at most limit iterations (the paper uses 5 and 10).
func UniformFast(eps float64, limit int) Budget { return dp.UniformFast{Eps: eps, Limit: limit} }

// GenerateCER produces CER-like daily electricity consumption series
// (24 hourly measures in [0, 80]); see DESIGN.md for the substitution
// rationale. It returns the dataset and the hidden archetype labels.
func GenerateCER(t int, seed uint64) (*Dataset, []int) {
	return datasets.GenerateCER(t, randx.New(seed, 0xCE2))
}

// GenerateNUMED produces NUMED-like tumor-growth series (20 weekly
// measures in [0, 50]) from the Claret growth-inhibition model.
func GenerateNUMED(t int, seed uint64) (*Dataset, []int) {
	return datasets.GenerateNUMED(t, randx.New(seed, 0x97ED))
}

// GenerateA3 produces the 750K-point 2-D dataset of the paper's
// Appendix D (50 clusters).
func GenerateA3(seed uint64) *Dataset {
	return datasets.GenerateA3(randx.New(seed, 0xA3))
}

// SeedCentroids draws k data-independent initial centroids for the named
// generator family ("cer", "numed", "a3") — the privacy-safe seeding the
// paper uses (real series must never seed the clustering).
func SeedCentroids(kind string, k int, seed uint64) []Series {
	return datasets.SeedCentroids(kind, k, randx.New(seed, 0x5EED))
}

// Ranges of the built-in generators, needed to calibrate sensitivity.
const (
	CERMin, CERMax     = datasets.CERMin, datasets.CERMax
	CERLen             = datasets.CERLen
	NUMEDMin, NUMEDMax = datasets.NUMEDMin, datasets.NUMEDMax
	NUMEDLen           = datasets.NUMEDLen
)
