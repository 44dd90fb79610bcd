package homenc

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzCiphertextWire round-trips arbitrary integers through the integer
// encoding a ciphertext (and a state's weight) travels in, and feeds
// arbitrary bytes to the bounded decoder: a decode that succeeds must
// re-encode to the same canonical bytes, and no input may allocate past
// the bound or panic.
func FuzzCiphertextWire(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0x01, 0, 0, 0, 0},
		{0x02, 0, 0, 0, 1, 0xFF},
		{0x01, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},
		AppendInt(nil, big.NewInt(0)),
		AppendInt(nil, big.NewInt(-123456789)),
		AppendInt(nil, new(big.Int).Lsh(big.NewInt(1), 2048)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := UnmarshalIntBound(data, 1<<12)
		if err != nil {
			return // malformed input must only error, never panic
		}
		// The encoding is canonical up to leading zero bytes in the
		// magnitude and a negative zero, so a decode/encode round trip of
		// the re-encoded form must be a fixed point.
		out := AppendInt(nil, v)
		size, canonical, err := ScanIntBound(out, 1<<12)
		if err != nil || size != len(out) || !canonical {
			t.Fatalf("re-encoding scans as (%d, %v, %v), want (%d, true, nil)", size, canonical, err, len(out))
		}
		v2, rest, err := UnmarshalIntBound(out, 1<<12)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode of canonical encoding failed: %v (%d bytes left)", err, len(rest))
		}
		if v.Cmp(v2) != 0 {
			t.Fatalf("round trip changed value: %v != %v", v, v2)
		}
		if !bytes.Equal(out, AppendInt(nil, v2)) {
			t.Fatalf("canonical encoding not a fixed point")
		}
	})
}

// FuzzVectorWire feeds arbitrary bytes to the bounded vector scan:
// hostile counts and lengths must be rejected without large allocations,
// and an accepted vector must read the same values whichever way it is
// taken — materialized from the view, or detached into an image (without
// materializing it) and decoded — and relay canonically.
func FuzzVectorWire(f *testing.F) {
	good, _ := MarshalVector([]Ciphertext{{V: big.NewInt(5)}, {V: big.NewInt(-9)}})
	f.Add(good)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})       // hostile count, no data
	f.Add([]byte{0, 0, 0, 2, 0x01, 0, 0, 0, 0}) // count 2, one element
	f.Add([]byte{0, 0, 0, 1, 0x03, 0, 0, 0, 0}) // bad tag
	f.Fuzz(func(t *testing.T, data []byte) {
		view, _, err := ScanVectorBound(data, 64, 1<<12)
		if err != nil {
			return
		}
		if view.Len() > 64 {
			t.Fatalf("scanned %d elements past the bound", view.Len())
		}
		cts := view.Values()
		before := ReadWireStats()
		relay := view.Copy()
		if got := ReadWireStats().Materialized - before.Materialized; got != 0 {
			t.Fatalf("detaching the view materialized %d vectors", got)
		}
		ps := relay.CopyValues()
		if len(cts) != view.Len() || relay.Len() != view.Len() || len(ps) != view.Len() {
			t.Fatalf("%d values, %d relayed, %d partials of a %d-element view", len(cts), relay.Len(), len(ps), view.Len())
		}
		for i, c := range cts {
			if ps[i].V.Cmp(c.V) != 0 {
				t.Fatalf("partial %d = %v, want %v", i, ps[i].V, c.V)
			}
		}
		out, err := MarshalVector(cts)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(relay.AppendTo(nil), out) {
			t.Fatal("a relayed vector is not the canonical encoding of its values")
		}
		again, rest, err := ScanVectorBound(out, 64, 1<<12)
		if err != nil || len(rest) != 0 || again.Len() != len(cts) {
			t.Fatalf("canonical round trip failed: %v", err)
		}
	})
}

// TestUnmarshalBoundsRejectBeforeAllocating pins the hardening contract:
// an encoding advertising a magnitude or count beyond the caller's bound
// is rejected up front.
func TestUnmarshalBoundsRejectBeforeAllocating(t *testing.T) {
	// 4 GiB magnitude announcement in a 6-byte input.
	huge := []byte{0x01, 0xFF, 0xFF, 0xFF, 0xFE, 0x00}
	if _, _, err := ScanIntBound(huge, 1<<16); err == nil {
		t.Fatal("hostile magnitude accepted")
	}
	// Magnitude exactly at the bound passes (given enough data).
	val := new(big.Int).Lsh(big.NewInt(1), 8*8-1) // 8-byte magnitude
	enc := AppendInt(nil, val)
	if _, _, err := ScanIntBound(enc, 8); err != nil {
		t.Fatalf("in-bound magnitude rejected: %v", err)
	}
	if _, _, err := ScanIntBound(enc, 7); err == nil {
		t.Fatal("out-of-bound magnitude accepted")
	}
	// 16M-element vector announcement in a 4-byte input.
	if _, _, err := ScanVectorBound([]byte{0x00, 0xFF, 0xFF, 0xFF}, 1<<24, 16); err == nil {
		t.Fatal("hostile vector count accepted")
	}
	if _, _, err := ScanVectorBound([]byte{0x00, 0x00, 0x00, 0x03}, 2, 16); err == nil {
		t.Fatal("vector count past bound accepted")
	}
}
