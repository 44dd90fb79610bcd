package timeseries

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestDist2(t *testing.T) {
	a := Series{0, 0, 0}
	b := Series{1, 2, 2}
	if got := a.Dist2(b); got != 9 {
		t.Errorf("Dist2 = %v, want 9", got)
	}
	if got := a.Dist(b); got != 3 {
		t.Errorf("Dist = %v, want 3", got)
	}
}

// TestDist2MatchesPlainLoop pins the unrolled Dist2 to the one-term-a-
// pass loop bit for bit, at every length around the unrolling.
func TestDist2MatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for n := 0; n <= 13; n++ {
		for trial := 0; trial < 20; trial++ {
			s, o := make(Series, n), make(Series, n)
			for i := range s {
				s[i], o[i] = rng.NormFloat64()*1e3, rng.NormFloat64()
			}
			var want float64
			for i, v := range s {
				d := v - o[i]
				want += d * d
			}
			if got := s.Dist2(o); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("length %d: Dist2 = %v, plain loop %v", n, got, want)
			}
		}
	}
}

func TestDistSymmetryQuick(t *testing.T) {
	f := func(x, y [8]int32) bool {
		a, b := make(Series, 8), make(Series, 8)
		for i := range x {
			a[i], b[i] = float64(x[i]), float64(y[i])
		}
		return almostEq(a.Dist2(b), b.Dist2(a)) && a.Dist2(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddScale(t *testing.T) {
	s := Series{1, 2, 3}
	s.Add(Series{1, 1, 1})
	s.Scale(2)
	want := Series{4, 6, 8}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("got %v, want %v", s, want)
		}
	}
}

func TestAddLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched length should panic")
		}
	}()
	Series{1}.Add(Series{1, 2})
}

func TestMinMaxSumClamp(t *testing.T) {
	s := Series{-3, 7, 2}
	if s.Min() != -3 || s.Max() != 7 || s.Sum() != 6 {
		t.Errorf("Min/Max/Sum = %v/%v/%v", s.Min(), s.Max(), s.Sum())
	}
	s.Clamp(0, 5)
	if s[0] != 0 || s[1] != 5 || s[2] != 2 {
		t.Errorf("Clamp produced %v", s)
	}
	if !s.InRange(0, 5) || s.InRange(1, 5) {
		t.Error("InRange misbehaves after clamp")
	}
}

func TestSMAConstantInvariant(t *testing.T) {
	// Smoothing a constant series must return the same constant series.
	s := make(Series, 24)
	for i := range s {
		s[i] = 42
	}
	for _, w := range []int{0, 2, 4, 5, 10, 23, 24, 100} {
		out := s.SMA(w)
		for j, v := range out {
			if !almostEq(v, 42) {
				t.Fatalf("SMA(%d)[%d] = %v, want 42", w, j, v)
			}
		}
	}
}

func TestSMAPreservesMeanQuick(t *testing.T) {
	// The circular window gives every element weight exactly (w+1)/(w+1):
	// the mean of the series is invariant under SMA.
	f := func(x [12]int32, wRaw uint8) bool {
		s := make(Series, 12)
		for i := range x {
			s[i] = float64(x[i]) / 1024
		}
		w := int(wRaw % 12)
		out := s.SMA(w)
		return almostEq(out.Sum(), s.Sum())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSMAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s := make(Series, 20)
	for i := range s {
		s[i] = rng.Float64() * 10
	}
	for _, w := range []int{2, 4, 6, 8} {
		fast := s.SMA(w)
		half := w / 2
		for j := range s {
			var naive float64
			for d := -half; d <= half; d++ {
				naive += s[mod(j+d, len(s))]
			}
			naive /= float64(w + 1)
			if !almostEq(fast[j], naive) {
				t.Fatalf("SMA(%d)[%d] = %v, naive = %v", w, j, fast[j], naive)
			}
		}
	}
}

func TestSMAReducesLaplaceVariance(t *testing.T) {
	// The whole point of Section 5.2: averaging w+1 i.i.d. Laplace noises
	// divides their variance by ~(w+1).
	rng := rand.New(rand.NewPCG(3, 4))
	n := 240
	s := make(Series, n)
	for i := range s {
		// crude Laplace via difference of exponentials
		s[i] = -math.Log(1-rng.Float64()) + math.Log(1-rng.Float64())
	}
	varOf := func(x Series) float64 {
		m := x.Sum() / float64(len(x))
		var v float64
		for _, e := range x {
			v += (e - m) * (e - m)
		}
		return v / float64(len(x))
	}
	raw := varOf(s)
	smooth := varOf(s.SMA(8))
	if smooth > raw/3 {
		t.Errorf("SMA(8) variance %v not well below raw %v", smooth, raw)
	}
}

func TestDataset(t *testing.T) {
	d := NewDataset(3)
	d.Append(Series{1, 2, 3})
	d.Append(Series{3, 4, 5})
	if d.Len() != 2 || d.Dim() != 3 {
		t.Fatalf("Len/Dim = %d/%d", d.Len(), d.Dim())
	}
	g := d.Centroid()
	want := Series{2, 3, 4}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("Centroid = %v, want %v", g, want)
		}
	}
	lo, hi := d.Range()
	if lo != 1 || hi != 5 {
		t.Errorf("Range = %v..%v, want 1..5", lo, hi)
	}
	sub := d.Subset([]int{1})
	if sub.Len() != 1 || sub.Row(0)[0] != 3 {
		t.Errorf("Subset wrong: %+v", sub.Row(0))
	}
}

func TestFromSeriesRagged(t *testing.T) {
	if _, err := FromSeries([]Series{{1, 2}, {1}}); err != ErrRagged {
		t.Errorf("FromSeries ragged err = %v, want ErrRagged", err)
	}
	if _, err := FromSeries(nil); err == nil {
		t.Error("FromSeries(nil) should error")
	}
}

func TestAppendRaw(t *testing.T) {
	d := NewDataset(2)
	d.AppendRaw([]float64{1, 2, 3, 4})
	if d.Len() != 2 || d.Row(1)[1] != 4 {
		t.Errorf("AppendRaw wrong: len=%d", d.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendRaw with ragged buffer should panic")
		}
	}()
	d.AppendRaw([]float64{1})
}

func TestFullInertiaTwoPoints(t *testing.T) {
	d := NewDataset(1)
	d.Append(Series{0})
	d.Append(Series{2})
	// centroid = 1, each point at squared distance 1 -> mean 1.
	if got := d.FullInertia(); !almostEq(got, 1) {
		t.Errorf("FullInertia = %v, want 1", got)
	}
}

func TestRowIsView(t *testing.T) {
	d := NewDataset(2)
	d.Append(Series{1, 2})
	d.Row(0)[0] = 9
	if d.Row(0)[0] != 9 {
		t.Error("Row should be a mutable view")
	}
}
