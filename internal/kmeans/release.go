package kmeans

import (
	"math"

	"chiaroscuro/internal/timeseries"
)

// SMAWindow is the Section 5.2 smoothing window for series of n
// measures: 20 % of the series length.
func SMAWindow(n int) int { return int(math.Round(0.2 * float64(n))) }

// Filter is the release filter every perturbed release source applies
// (Section 5.2 and footnote 8), written once: the centralized DP model
// and the distributed machine drop and smooth the same means the same
// way.
type Filter struct {
	CountFloor float64 // a perturbed count below this makes its mean lost
	Lo, Hi     float64 // a mean with a measure outside [Lo, Hi] is aberrant
	Window     int     // SMA window (Section 5.2); 0 does not smooth
}

// NewFilter builds the filter for measures in [dmin, dmax]: a mean is
// aberrant outside that range widened by slack range widths on each
// side, lost when its count is below countFloor, and smoothed over
// window measures.
func NewFilter(dmin, dmax, slack, countFloor float64, window int) Filter {
	width := dmax - dmin
	return Filter{CountFloor: countFloor, Lo: dmin - slack*width, Hi: dmax + slack*width, Window: window}
}

// Means turns perturbed per-cluster sums and counts into the released
// means, in place: a count below the floor loses its mean, the others
// are scaled by 1/count, smoothed, and dropped when aberrant. The sums
// are scaled in place and their slice returned, lost and aberrant
// means set to nil.
func (f Filter) Means(sums []timeseries.Series, counts []float64) []timeseries.Series {
	for c, mean := range sums {
		sums[c] = nil
		if counts[c] < f.CountFloor {
			continue // lost mean
		}
		mean.Scale(1 / counts[c])
		if f.Window > 0 {
			mean = mean.SMA(f.Window)
		}
		if mean.InRange(f.Lo, f.Hi) {
			sums[c] = mean // else aberrant
		}
	}
	return sums
}
