package kmeans

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"

	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// scanAssign is the assignment step as a full scan, the oracle the
// pruned Assign must match bit for bit: every row against every
// centroid, the first strictly least Dist2 winning, summed in Assign's
// reduction order (rows in order within a block of assignBlock, blocks
// in order).
func scanAssign(d *timeseries.Dataset, centroids []timeseries.Series) *Assignment {
	k, n := len(centroids), d.Dim()
	out := newAssignment(k, n)
	for lo := 0; lo < d.Len(); lo += assignBlock {
		p := newAssignment(k, n)
		for i := lo; i < min(lo+assignBlock, d.Len()); i++ {
			row := d.Row(i)
			best, bestD2 := 0, math.Inf(1)
			for c, ctr := range centroids {
				if d2 := row.Dist2(ctr); d2 < bestD2 {
					best, bestD2 = c, d2
				}
			}
			p.Sums[best].Add(row)
			p.Counts[best]++
			var sq float64
			for _, v := range row {
				sq += float64(v * v)
			}
			p.SqSums[best] += sq
			p.SSE += bestD2
		}
		out.add(p)
	}
	return out
}

// assignBits lists every bit of an assignment: SSE, then each
// cluster's count, squared sum and sums.
func assignBits(a *Assignment) []uint64 {
	out := []uint64{math.Float64bits(a.SSE)}
	for c := range a.Sums {
		out = append(out, uint64(a.Counts[c]), math.Float64bits(a.SqSums[c]))
		for _, v := range a.Sums[c] {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// checkAssignMatchesScan fails t unless Assign and scanAssign agree in
// every bit.
func checkAssignMatchesScan(t *testing.T, d *timeseries.Dataset, centroids []timeseries.Series) {
	t.Helper()
	got, err := Assign(d, centroids)
	if err != nil {
		t.Fatal(err)
	}
	want := scanAssign(d, centroids)
	if !slices.Equal(assignBits(got), assignBits(want)) {
		t.Fatalf("Assign differs from the full scan:\ncounts %v, want %v\nSSE %v, want %v\nsq sums %v, want %v",
			got.Counts, want.Counts, got.SSE, want.SSE, got.SqSums, want.SqSums)
	}
}

// dataset builds a dataset of the given rows.
func dataset(rows ...timeseries.Series) *timeseries.Dataset {
	d := timeseries.NewDataset(len(rows[0]))
	for _, r := range rows {
		d.Append(r)
	}
	return d
}

func TestAssignMatchesScan(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rng := randx.New(9, 9)
	cer, _ := datasets.GenerateCER(3*assignBlock+77, rng)
	cer50 := datasets.SeedCentroids("cer", 50, rng)
	// Centroids a few Lloyd steps in, where pruning skips the most.
	lloyd := cer50
	for range 3 {
		a, err := Assign(cer, lloyd)
		if err != nil {
			t.Fatal(err)
		}
		lloyd = Compact(a.Means())
	}
	dup := slices.Clone(cer50[:12])
	dup[3], dup[7], dup[11] = dup[1], dup[1].Clone(), dup[0]

	// Rows on the bisector of (1,0) and (-1,0) tie between centroids 1
	// and 2, each after a row won by one side, so the guess is either.
	var ties []timeseries.Series
	for i := range 64 {
		side := 1.0
		if i%4 >= 2 {
			side = -1
		}
		ties = append(ties, timeseries.Series{side * 1.1, float64(i % 3)}, timeseries.Series{0, float64(i%5) - 2})
	}
	big := 1e154
	cases := []struct {
		name string
		d    *timeseries.Dataset
		c    []timeseries.Series
	}{
		{"cer seeds k=50", cer, cer50},
		{"cer after Lloyd", cer, lloyd},
		{"cer k=1", cer, cer50[:1]},
		{"cer duplicate centroids", cer, dup},
		{"equidistant rows", dataset(ties...), []timeseries.Series{{5, 5}, {1, 0}, {-1, 0}, {1, 0}}},
		{"nan and inf rows", dataset(
			timeseries.Series{0, 0}, timeseries.Series{nan, 0}, timeseries.Series{3, 3},
			timeseries.Series{inf, 0}, timeseries.Series{-inf, 1}, timeseries.Series{1, 1},
			timeseries.Series{nan, nan}, timeseries.Series{inf, -inf}, timeseries.Series{2, 2}),
			[]timeseries.Series{{0, 0}, {3, 3}, {1, 1}}},
		{"nan and inf centroids", dataset(
			timeseries.Series{0, 0}, timeseries.Series{3, 3}, timeseries.Series{inf, 0},
			timeseries.Series{nan, 1}, timeseries.Series{1, 1}, timeseries.Series{-inf, -inf}),
			[]timeseries.Series{{nan, nan}, {3, 3}, {inf, 0}, {0, 0}, {nan, nan}, {-inf, -inf}}},
		{"all-nan centroids", dataset(timeseries.Series{0, 0}, timeseries.Series{1, 2}),
			[]timeseries.Series{{nan, nan}, {nan, nan}}},
		{"overflowing distances", dataset(
			timeseries.Series{0, 0}, timeseries.Series{big, 0}, timeseries.Series{-big, big},
			timeseries.Series{0.5 * big, -big}, timeseries.Series{3 * big, 3 * big}, timeseries.Series{-0.9 * big, 0}),
			[]timeseries.Series{{big, 0}, {-0.5 * big, 0}, {0, 0}, {-big, -big}, {2 * big, 2 * big}}},
		{"overflowing centroid distance", dataset(
			timeseries.Series{0, 0}, timeseries.Series{0.1 * big, 0}, timeseries.Series{-0.2 * big, 0}),
			[]timeseries.Series{{big, 0}, {-0.5 * big, 0}}},
		// Each row is strictly closer to centroid 1 by Dist2, yet its
		// exact half distance between the centroids exceeds the
		// rounded distance to centroid 0: only the margin keeps
		// centroid 1 from being skipped.
		{"rounding at the bisector", dataset(timeseries.Series{-2.080021674526874, -1.5664278951808348}),
			[]timeseries.Series{{-3.2709010427219027, -1.215447520773738}, {-0.8891423063318451, -1.9174082695879318}}},
		{"rounding at the bisector 2", dataset(timeseries.Series{0.2518727089958597, -1.1109895280459674}),
			[]timeseries.Series{{-0.8874165220325245, -0.582501522449345}, {1.3911619400242436, -1.63947753364259}}},
		{"tiny distances", dataset(
			timeseries.Series{0, 0}, timeseries.Series{1e-300, 0}, timeseries.Series{5e-324, 5e-324},
			timeseries.Series{1e-160, 1e-160}, timeseries.Series{-1e-200, 0}),
			[]timeseries.Series{{1e-160, 0}, {0, 0}, {-1e-160, 1e-160}, {1e-300, 1e-300}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkAssignMatchesScan(t, tc.d, tc.c) })
	}
}

// TestAssignConcurrentCalls runs Assign from several goroutines at
// once, each with its own k, so that calls race for the kept partials
// and half-distance table: every result must still be the scan's.
func TestAssignConcurrentCalls(t *testing.T) {
	rng := randx.New(10, 10)
	d, _ := datasets.GenerateCER(assignBlock+500, rng)
	cents := datasets.SeedCentroids("cer", 40, rng)
	var wg sync.WaitGroup
	for g := range 4 {
		k := 10 * (g + 1)
		want := assignBits(scanAssign(d, cents[:k]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				a, err := Assign(d, cents[:k])
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(assignBits(a), want) {
					t.Errorf("Assign at k = %d differs from the full scan", k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fuzzValues are the values a fuzz byte picks beyond small integers:
// the non-finite ones, magnitudes whose squares overflow or underflow,
// and subnormals.
var fuzzValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 1e154, -1e154, 1e200, 0.7e154,
	1e-160, -1e-160, 5e-324, 1e-310, 0.5, -0.25, 1e8 + 0.5, math.MaxFloat64,
}

// fuzzDataset decodes a series length, centroids and rows from raw: a
// byte below 0xF0 is a small integer (so that exact ties are common),
// 0xFF takes the next eight bytes as a float64's bits, and the others
// index fuzzValues.
func fuzzDataset(dim, k uint8, raw []byte) (*timeseries.Dataset, []timeseries.Series) {
	n, kk := 1+int(dim%6), 1+int(k%9)
	var vals []float64
	for len(raw) > 0 {
		b := raw[0]
		raw = raw[1:]
		switch {
		case b < 0xF0:
			vals = append(vals, float64(int(b%9)-4))
		case b == 0xFF && len(raw) >= 8:
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		default:
			vals = append(vals, fuzzValues[int(b-0xF0)%len(fuzzValues)])
		}
	}
	for len(vals) < n*(kk+1) {
		vals = append(vals, float64(len(vals)%5))
	}
	cents := make([]timeseries.Series, kk)
	for c := range cents {
		cents[c] = timeseries.Series(vals[c*n : (c+1)*n])
	}
	d := timeseries.NewDataset(n)
	for i := kk * n; i+n <= len(vals); i += n {
		d.Append(vals[i : i+n])
	}
	return d, cents
}

func FuzzAssignMatchesScan(f *testing.F) {
	f.Add(uint8(1), uint8(2), []byte{4, 5, 6, 3, 4, 5, 4, 4, 3, 5, 6, 6, 4, 4})
	f.Add(uint8(0), uint8(0), []byte{0xF0, 4, 0xF1, 0xF2})
	f.Add(uint8(1), uint8(3), []byte{0xF3, 0, 0xF4, 0, 0xF3, 0xF3, 4, 4, 0xF6, 0xF4, 0xF3, 4, 0xF5, 0xF5})
	f.Add(uint8(2), uint8(4), []byte{0xF7, 4, 4, 0xF8, 0xF7, 4, 4, 4, 4, 0xF9, 0xFA, 4, 0xF7, 0xF9, 0xF9, 4, 4, 0xF8})
	f.Add(uint8(0), uint8(5), []byte{1, 7, 1, 7, 4, 0xFF, 1, 0, 0, 0, 0, 0, 0, 0x80, 3, 5, 4, 4, 2, 6, 0xFE})
	f.Fuzz(func(t *testing.T, dim, k uint8, raw []byte) {
		d, cents := fuzzDataset(dim, k, raw)
		checkAssignMatchesScan(t, d, cents)
	})
}
