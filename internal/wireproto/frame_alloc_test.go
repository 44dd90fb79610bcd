package wireproto

import (
	"bytes"
	"math/big"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
)

// decRoundTripState is a decryption leg of the vnode benchmark's
// shape, naming τ = 5 key-shares: with their partial vectors of 50
// elements (a checkpoint's set, or a leg to an empty peer), or —
// settled, a leg between two full sets — their indices alone.
func decRoundTripState(settled bool) *DecMsg {
	const dim, tau = 50, 5
	vals := make([]int64, dim)
	for i := range vals {
		vals[i] = int64(i+1) << 40
	}
	m := &DecMsg{
		Hdr: ExchangeHdr{Iter: 1, Cycle: 3, Seq: 2, From: 0, To: 1},
		ID:  0xC0FFEE,
	}
	for share := 1; share <= tau; share++ {
		m.Shares = append(m.Shares, eesum.Part{Idx: share, V: homenc.NewVector(cts(vals...))})
	}
	if !settled {
		m.Parts = m.Shares
	}
	return m
}

// TestFrameRoundTripAllocs puts a ceiling on what one frame costs once
// the images exist and the pool is warm. A decryption leg — write,
// read, scan, release — must not allocate per integer at all (the eager
// path paid ~5 allocations for each of its 300 integers), and its scan
// allocates nothing; a sum leg still materializes both vectors for the
// merge, but as slabs, not per element.
func TestFrameRoundTripAllocs(t *testing.T) {
	lim := NewLimits(64, 50, 5, 400)
	var buf bytes.Buffer
	roundTrip := func(kind byte, m Message, scan func([]byte) error) func() {
		return func() {
			buf.Reset()
			if _, err := WriteMessage(&buf, kind, 7, 1, m); err != nil {
				t.Fatal(err)
			}
			f, err := ReadFrame(&buf, lim.MaxFrameLen)
			if err != nil {
				t.Fatal(err)
			}
			if err := scan(f.Payload); err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
	}

	scanDec := func(p []byte) error {
		_, err := ScanDec(p, lim)
		return err
	}
	for _, c := range []struct {
		name          string
		settled       bool
		ceiling, scan float64
	}{
		{"dec frame", false, 5, 0},
		{"settled dec frame", true, 5, 0},
	} {
		m := decRoundTripState(c.settled)
		if got := testing.AllocsPerRun(100, roundTrip(KindDecReq, m, scanDec)); got > c.ceiling {
			t.Errorf("%s round trip: %v allocs, ceiling %v", c.name, got, c.ceiling)
		}
		payload := Marshal(m)
		if got := testing.AllocsPerRun(100, func() { _ = scanDec(payload) }); got > c.scan {
			t.Errorf("%s scan: %v allocs, ceiling %v", c.name, got, c.scan)
		}
	}

	state := func(shift uint) eesum.SumState {
		vals := make([]int64, 50)
		for i := range vals {
			vals[i] = int64(i+1) << shift
		}
		return eesum.SumState{CTs: cts(vals...), Omega: big.NewInt(3), Epoch: 5}
	}
	sum := roundTrip(KindSumReq, &SumOut{Means: SideOf(state(40))}, func(p []byte) error {
		v, err := ScanSum(p, lim)
		if err == nil {
			_ = v.Means.State()
		}
		return err
	})
	if got := testing.AllocsPerRun(100, sum); got > 15 {
		t.Errorf("sum frame round trip: %v allocs, ceiling 15", got)
	}
}
