// Package timeseries provides the time-series substrate used throughout
// Chiaroscuro: fixed-length real-valued series, datasets stored as dense
// matrices, Euclidean geometry, and the circular moving-average smoothing
// of Section 5.2 of the paper.
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// Series is a fixed-length sequence of real-valued measures
// s = <s[1] s[2] ... s[n]> (0-indexed here).
type Series []float64

// Clone returns a deep copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Add adds o to s element-wise, in place. It panics if lengths differ.
func (s Series) Add(o Series) {
	if len(s) != len(o) {
		panic(fmt.Sprintf("timeseries: length mismatch %d != %d", len(s), len(o)))
	}
	for i, v := range o {
		s[i] += v
	}
}

// Scale multiplies every measure by f, in place.
func (s Series) Scale(f float64) {
	for i := range s {
		s[i] *= f
	}
}

// Dist2 returns the squared Euclidean distance between s and o.
// It panics if lengths differ.
func (s Series) Dist2(o Series) float64 {
	if len(s) != len(o) {
		panic(fmt.Sprintf("timeseries: length mismatch %d != %d", len(s), len(o)))
	}
	// Four terms a pass, added one by one in index order, so the sum is
	// the plain loop's bit for bit. The additions are one dependency
	// chain; with four of them a pass the loop is bound by their latency
	// wherever the linker places it, while the plain loop's speed moved
	// by up to a fifth with its code alignment. k-means assignment calls
	// this k times per series.
	var sum float64
	i := 0
	for ; i+4 <= len(s); i += 4 {
		a, b := s[i:i+4:i+4], o[i:i+4:i+4]
		d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
		sum += d0 * d0
		sum += d1 * d1
		sum += d2 * d2
		sum += d3 * d3
	}
	for ; i < len(s); i++ {
		d := s[i] - o[i]
		sum += d * d
	}
	return sum
}

// Dist returns the Euclidean distance between s and o.
func (s Series) Dist(o Series) float64 { return math.Sqrt(s.Dist2(o)) }

// Sum returns the sum of the measures of s.
func (s Series) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Min returns the smallest measure, or +Inf for an empty series.
func (s Series) Min() float64 {
	m := math.Inf(1)
	for _, v := range s {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest measure, or -Inf for an empty series.
func (s Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// Clamp restricts every measure to [lo, hi], in place.
func (s Series) Clamp(lo, hi float64) {
	for i, v := range s {
		if v < lo {
			s[i] = lo
		} else if v > hi {
			s[i] = hi
		}
	}
}

// InRange reports whether every measure lies in [lo, hi]; a NaN does
// not.
func (s Series) InRange(lo, hi float64) bool {
	for _, v := range s {
		if !(v >= lo && v <= hi) {
			return false
		}
	}
	return true
}

// SMA returns the circular simple-moving-average smoothing of s over a
// window of w+1 measures (w/2 on each side, indices taken modulo n), as
// defined in Section 5.2 of the paper:
//
//	s̄[j] = (s[j−w/2] + ... + s[j+w/2]) / (w+1)
//
// A window w <= 0 returns a plain copy. Even w is used as-is; odd w is
// rounded down to the nearest even value so the window stays centered.
func (s Series) SMA(w int) Series {
	n := len(s)
	if w <= 0 || n == 0 {
		return s.Clone()
	}
	if w >= n {
		w = n - 1
	}
	w -= w % 2 // keep the window centered
	if w == 0 {
		return s.Clone()
	}
	half := w / 2
	out := make(Series, n)
	// Running circular window sum: O(n) rather than O(n*w).
	var sum float64
	for j := -half; j <= half; j++ {
		sum += s[mod(j, n)]
	}
	for j := 0; j < n; j++ {
		out[j] = sum / float64(w+1)
		sum -= s[mod(j-half, n)]
		sum += s[mod(j+half+1, n)]
	}
	return out
}

func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// ErrRagged is returned when series of different lengths are combined
// into a single dataset.
var ErrRagged = errors.New("timeseries: series have differing lengths")

// Dataset is a set of t time-series of identical length n, stored in a
// single dense row-major buffer so that large collections (millions of
// series) stay cache- and GC-friendly.
type Dataset struct {
	data []float64
	n    int // series length
	t    int // number of series
}

// NewDataset creates an empty dataset of series length n.
func NewDataset(n int) *Dataset {
	if n <= 0 {
		panic("timeseries: series length must be positive")
	}
	return &Dataset{n: n}
}

// NewDatasetCap creates an empty dataset of series length n with room
// preallocated for capSeries series.
func NewDatasetCap(n, capSeries int) *Dataset {
	d := NewDataset(n)
	d.data = make([]float64, 0, n*capSeries)
	return d
}

// FromSeries builds a dataset from a slice of equal-length series.
func FromSeries(rows []Series) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, errors.New("timeseries: empty dataset")
	}
	d := NewDatasetCap(len(rows[0]), len(rows))
	for _, r := range rows {
		if len(r) != d.n {
			return nil, ErrRagged
		}
		d.Append(r)
	}
	return d, nil
}

// Append adds one series to the dataset. It panics on length mismatch.
func (d *Dataset) Append(s Series) {
	if len(s) != d.n {
		panic(fmt.Sprintf("timeseries: appending series of length %d to dataset of length %d", len(s), d.n))
	}
	d.data = append(d.data, s...)
	d.t++
}

// Len returns the number of series t.
func (d *Dataset) Len() int { return d.t }

// Dim returns the series length n.
func (d *Dataset) Dim() int { return d.n }

// Row returns the i-th series as a view into the dataset buffer.
// Mutating the returned slice mutates the dataset.
func (d *Dataset) Row(i int) Series {
	return Series(d.data[i*d.n : (i+1)*d.n])
}

// Centroid returns the dimension-wise mean g of the whole dataset
// (the "center of mass" used by the inter-cluster inertia).
func (d *Dataset) Centroid() Series {
	g := make(Series, d.n)
	if d.t == 0 {
		return g
	}
	for i := 0; i < d.t; i++ {
		row := d.data[i*d.n : (i+1)*d.n]
		for j, v := range row {
			g[j] += v
		}
	}
	g.Scale(1 / float64(d.t))
	return g
}

// Range returns the minimum and maximum measure across the dataset.
func (d *Dataset) Range() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range d.data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// InRange reports whether every measure of every series lies in
// [lo, hi] (Series.InRange over the whole buffer).
func (d *Dataset) InRange(lo, hi float64) bool { return Series(d.data).InRange(lo, hi) }

// Subset returns a new dataset containing the rows whose indices are
// listed in idx. Rows are copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := NewDatasetCap(d.n, len(idx))
	for _, i := range idx {
		out.Append(d.Row(i))
	}
	return out
}

// FullInertia returns the constant q^ζ of Definition 1: the mean squared
// distance of every series to the global centroid. It upper-bounds the
// intra-cluster inertia of any clustering of d.
func (d *Dataset) FullInertia() float64 {
	if d.t == 0 {
		return 0
	}
	g := d.Centroid()
	var q float64
	for i := 0; i < d.t; i++ {
		q += d.Row(i).Dist2(g)
	}
	return q / float64(d.t)
}
