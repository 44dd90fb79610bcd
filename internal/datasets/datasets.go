// Package datasets generates the three workloads used by the paper's
// evaluation (Section 6 and Appendix D) and provides CSV persistence.
//
// The real CER electricity dataset is distributed under an ISSDA license
// and the paper's NUMED dataset is itself synthetic, so this package
// substitutes faithful generators (see DESIGN.md §2):
//
//   - CER-like: daily household electricity load curves, 24 hourly
//     measures in [0, 80] kWh, drawn from a skewed mixture of household
//     archetypes. The mixture is strongly concentrated (a few huge
//     clusters, a long tail of small ones), which is the property the
//     paper's smoothing heuristic exploits.
//   - NUMED-like: tumor-growth series, 20 weekly measures in [0, 50] mm,
//     generated with the Claret tumor-growth-inhibition model the
//     paper's reference [7] describes, with balanced profile regimes.
//   - A3-like: the 7.5K-point, 50-cluster 2-D benchmark, duplicated 100
//     times with small uniform jitter to reach 750K points, exactly as
//     the paper's Appendix D constructs its dataset.
package datasets

import (
	"math"

	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// CER dataset constants from Table 2 and Section 6.1.1 of the paper.
const (
	CERLen = 24  // measures per series (one per hour)
	CERMin = 0.0 // measure range lower bound
	CERMax = 80.0

	NUMEDLen = 20 // one measure per week
	NUMEDMin = 0.0
	NUMEDMax = 50.0

	A3Clusters = 50
	A3BasePts  = 7_500
	A3Replicas = 100
	A3Min      = 0.0
	A3Max      = 100.0
)

// cerArchetype is one daily electricity usage shape. Loads are expressed
// as a base plus weighted bumps; the per-household scale is lognormal.
type cerArchetype struct {
	name   string
	weight float64   // population share (unnormalized) — deliberately skewed
	base   float64   // constant background load
	bumps  []cerBump // activity peaks
	scale  float64   // archetype-level multiplier
}

type cerBump struct {
	center, width, height float64
}

// cerArchetypes mirrors the strong concentration of residential load
// profiles: two dominant shapes (evening-peak workers), a mid tail, and
// several rare shapes (night storage heating, small businesses, ...).
var cerArchetypes = []cerArchetype{
	{"evening-peak", 0.34, 0.6, []cerBump{{7.5, 1.4, 3.0}, {19, 2.4, 9.0}}, 1.0},
	{"double-peak", 0.26, 0.5, []cerBump{{8, 1.8, 6.0}, {18.5, 2.2, 7.5}}, 1.0},
	{"daytime-home", 0.14, 0.9, []cerBump{{12, 3.5, 5.0}, {20, 1.8, 4.0}}, 1.0},
	{"late-night", 0.08, 0.7, []cerBump{{22.5, 2.0, 6.5}, {1.5, 1.5, 4.0}}, 1.0},
	{"business-9-5", 0.07, 0.4, []cerBump{{13, 4.0, 11.0}}, 1.6},
	{"night-storage", 0.05, 0.5, []cerBump{{3, 2.5, 14.0}, {19, 1.5, 2.0}}, 1.4},
	{"frugal-flat", 0.03, 0.35, []cerBump{{19.5, 2.0, 1.2}}, 0.5},
	{"heavy-consumer", 0.015, 2.5, []cerBump{{9, 2.0, 10.0}, {14, 2.5, 9.0}, {20, 2.5, 13.0}}, 2.2},
	{"two-shift", 0.01, 0.6, []cerBump{{5.5, 1.2, 7.0}, {17.5, 1.2, 7.0}}, 1.1},
	{"weekend-surge", 0.005, 0.8, []cerBump{{11, 5.0, 8.0}, {21, 1.5, 6.0}}, 1.3},
}

// GenerateCER produces t CER-like daily electricity load series of
// CERLen hourly measures, clamped to [CERMin, CERMax]. The label slice
// gives the archetype index each series was drawn from (handy for
// sanity-checking clustering quality; the protocol never sees it).
func GenerateCER(t int, rng *randx.RNG) (*timeseries.Dataset, []int) {
	weights := make([]float64, len(cerArchetypes))
	for i, a := range cerArchetypes {
		weights[i] = a.weight
	}
	d := timeseries.NewDatasetCap(CERLen, t)
	labels := make([]int, t)
	row := make(timeseries.Series, CERLen)
	for i := 0; i < t; i++ {
		ai := rng.Categorical(weights)
		labels[i] = ai
		a := cerArchetypes[ai]
		// Household-level lognormal scale: median 1, moderate spread.
		hh := a.scale * rng.LogNormal(0, 0.35)
		jitterPhase := rng.Gaussian(0, 0.4)
		for h := 0; h < CERLen; h++ {
			v := a.base
			for _, b := range a.bumps {
				v += float64(b.height * gaussBump(float64(h)+0.5, b.center+jitterPhase, b.width))
			}
			v = float64(v * hh)
			v += math.Abs(rng.Gaussian(0, 0.25)) // appliance noise, non-negative-ish
			row[h] = v
		}
		row.Clamp(CERMin, CERMax)
		d.Append(row)
	}
	return d, labels
}

// gaussBump evaluates a periodic (24h-wrapped) Gaussian bump.
func gaussBump(x, center, width float64) float64 {
	d := math.Mod(x-center+36, 24) - 12 // circular distance in hours
	return math.Exp(-d * d / (2 * width * width))
}

// numedRegime is one tumor-response profile for the Claret model
// y(t) = y0 · exp(kG·t − (kD/λ)·(1 − e^(−λt))).
type numedRegime struct {
	name            string
	weight          float64
	y0Mu, y0Sig     float64 // baseline tumor size (lognormal, mm)
	kGMu, kGSig     float64 // growth rate per week
	kDMu, kDSig     float64 // drug-induced decay per week
	lambMu, lambSig float64 // drug-effect attenuation
}

// Balanced regimes (the paper notes NUMED series are "equally distributed
// across the clusters", unlike CER).
var numedRegimes = []numedRegime{
	{"responder", 1, 3.0, 0.25, 0.005, 0.002, 0.09, 0.02, 0.05, 0.01},
	{"deep-responder", 1, 3.2, 0.20, 0.003, 0.001, 0.16, 0.03, 0.03, 0.008},
	{"stable", 1, 2.8, 0.25, 0.012, 0.004, 0.012, 0.004, 0.08, 0.02},
	{"late-escape", 1, 2.6, 0.25, 0.045, 0.008, 0.11, 0.02, 0.35, 0.06},
	{"progressor", 1, 2.9, 0.25, 0.035, 0.007, 0.008, 0.003, 0.10, 0.02},
	{"fast-progressor", 1, 2.5, 0.30, 0.065, 0.010, 0.004, 0.002, 0.12, 0.02},
}

// GenerateNUMED produces t NUMED-like tumor-growth series of NUMEDLen
// weekly measures clamped to [NUMEDMin, NUMEDMax], using the Claret
// tumor-growth-inhibition model with per-patient parameters.
func GenerateNUMED(t int, rng *randx.RNG) (*timeseries.Dataset, []int) {
	weights := make([]float64, len(numedRegimes))
	for i, r := range numedRegimes {
		weights[i] = r.weight
	}
	d := timeseries.NewDatasetCap(NUMEDLen, t)
	labels := make([]int, t)
	row := make(timeseries.Series, NUMEDLen)
	for i := 0; i < t; i++ {
		ri := rng.Categorical(weights)
		labels[i] = ri
		reg := numedRegimes[ri]
		y0 := rng.LogNormal(reg.y0Mu, reg.y0Sig)
		kG := math.Max(0, rng.Gaussian(reg.kGMu, reg.kGSig))
		kD := math.Max(0, rng.Gaussian(reg.kDMu, reg.kDSig))
		lamb := math.Max(1e-3, rng.Gaussian(reg.lambMu, reg.lambSig))
		for w := 0; w < NUMEDLen; w++ {
			tw := float64(w)
			y := float64(y0 * math.Exp(float64(kG*tw)-float64((kD/lamb)*(1-math.Exp(-lamb*tw)))))
			y += rng.Gaussian(0, 0.15) // measurement noise
			row[w] = y
		}
		row.Clamp(NUMEDMin, NUMEDMax)
		d.Append(row)
	}
	return d, labels
}

// GenerateA3Base produces the 7.5K-point, 50-cluster 2-D base set: 50
// well-separated Gaussian blobs of 150 points each inside [A3Min, A3Max]².
// Centers are laid on a jittered grid so blobs never collapse onto each
// other (the property the original A3 benchmark has).
func GenerateA3Base(rng *randx.RNG) (*timeseries.Dataset, []int) {
	const perCluster = A3BasePts / A3Clusters
	// 8x7 jittered grid, 50 of 56 cells used.
	type pt struct{ x, y float64 }
	centers := make([]pt, 0, A3Clusters)
	cells := rng.Perm(56)
	for _, c := range cells[:A3Clusters] {
		cx := float64(float64(c%8)*12.5) + 6.25
		cy := float64(float64(c/8)*14.3) + 7.15
		centers = append(centers, pt{
			x: cx + rng.Uniform(-2.5, 2.5),
			y: cy + rng.Uniform(-2.5, 2.5),
		})
	}
	d := timeseries.NewDatasetCap(2, A3BasePts)
	labels := make([]int, 0, A3BasePts)
	for ci, c := range centers {
		for p := 0; p < perCluster; p++ {
			d.Append(timeseries.Series{
				clampF(c.x+rng.Gaussian(0, 1.4), A3Min, A3Max),
				clampF(c.y+rng.Gaussian(0, 1.4), A3Min, A3Max),
			})
			labels = append(labels, ci)
		}
	}
	return d, labels
}

// ReplicateJitter duplicates every row of base `replicas` times, adding
// uniform jitter in [-jitter, +jitter] to each coordinate — the Appendix D
// construction ("duplicating 100 times each of the 7.5K points ... adding
// to each copy a uniform random value small enough to preserve the
// clusters").
func ReplicateJitter(base *timeseries.Dataset, replicas int, jitter float64, rng *randx.RNG) *timeseries.Dataset {
	out := timeseries.NewDatasetCap(base.Dim(), base.Len()*replicas)
	row := make(timeseries.Series, base.Dim())
	for r := 0; r < replicas; r++ {
		for i := 0; i < base.Len(); i++ {
			src := base.Row(i)
			for j := range row {
				row[j] = src[j] + rng.Uniform(-jitter, jitter)
			}
			out.Append(row)
		}
	}
	return out
}

// GenerateA3 produces the full 750K-point dataset of Appendix D.
func GenerateA3(rng *randx.RNG) *timeseries.Dataset {
	base, _ := GenerateA3Base(rng)
	return ReplicateJitter(base, A3Replicas, 0.5, rng)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SeedCentroids draws k plausible initial centroids for a dataset
// *without touching participant data*: it generates fresh series from
// the same generator family (the paper uses the CourboGen synthetic
// generator for CER seeds for exactly this privacy reason). kind must be
// one of "cer", "numed", "a3".
func SeedCentroids(kind string, k int, rng *randx.RNG) []timeseries.Series {
	var d *timeseries.Dataset
	switch kind {
	case "cer":
		d, _ = GenerateCER(k, rng)
	case "numed":
		d, _ = GenerateNUMED(k, rng)
	case "a3":
		base, _ := GenerateA3Base(rng)
		idx := rng.Perm(base.Len())[:k]
		d = base.Subset(idx)
	default:
		panic("datasets: unknown kind " + kind)
	}
	out := make([]timeseries.Series, k)
	for i := 0; i < k; i++ {
		out[i] = d.Row(i).Clone()
	}
	return out
}
