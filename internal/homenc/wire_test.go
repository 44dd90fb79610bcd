package homenc

import (
	"bytes"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

func TestCiphertextRoundTrip(t *testing.T) {
	f := func(raw []byte, neg bool) bool {
		v := new(big.Int).SetBytes(raw)
		if neg {
			v.Neg(v)
		}
		got, rest, err := UnmarshalIntBound(AppendInt(nil, v), DefaultMaxIntBytes)
		return err == nil && len(rest) == 0 && got.Cmp(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPartialDecryptionRoundTrip: a key-share's partial decryptions are
// written as a vector image and read back; the share index the set is
// held under is not in the encoding.
func TestPartialDecryptionRoundTrip(t *testing.T) {
	vals := []*big.Int{big.NewInt(-123456789), big.NewInt(0), new(big.Int).Lsh(big.NewInt(1), 700)}
	w := NewVectorWriter(len(vals), 100)
	for _, v := range vals {
		w.Append(v)
	}
	img := w.Vector().AppendTo(nil)
	view, rest, err := ScanVectorBound(img, len(vals), DefaultMaxIntBytes)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	for _, got := range [][]Ciphertext{view.Copy().CopyValues(), NewVector(view.Values()).CopyValues()} {
		if len(got) != len(vals) {
			t.Fatalf("%d partials, want %d", len(got), len(vals))
		}
		for i, v := range vals {
			if got[i].V.Cmp(v) != 0 {
				t.Errorf("partial %d = %v, want %v", i, got[i].V, v)
			}
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	cts := []Ciphertext{
		{V: big.NewInt(0)},
		{V: big.NewInt(1)},
		{V: new(big.Int).Lsh(big.NewInt(1), 2048)},
		{V: big.NewInt(-99)},
	}
	b, err := MarshalVector(cts)
	if err != nil {
		t.Fatal(err)
	}
	view, rest, err := ScanVectorBound(b, DefaultMaxVectorLen, DefaultMaxIntBytes)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	got := view.Values()
	if len(got) != len(cts) {
		t.Fatalf("length %d, want %d", len(got), len(cts))
	}
	for i := range cts {
		if got[i].V.Cmp(cts[i].V) != 0 {
			t.Errorf("element %d: %v != %v", i, got[i].V, cts[i].V)
		}
	}
}

func TestWireErrors(t *testing.T) {
	if _, err := MarshalVector([]Ciphertext{{}}); err == nil {
		t.Error("nil ciphertext must not marshal")
	}
	for _, bad := range [][]byte{
		{1, 2},             // short
		{9, 0, 0, 0, 0},    // bad tag
		{1, 0, 0, 0, 5, 1}, // truncated magnitude
	} {
		if _, _, err := ScanIntBound(bad, DefaultMaxIntBytes); err == nil {
			t.Errorf("integer encoding %x must fail", bad)
		}
	}
	if _, _, err := ScanVectorBound([]byte{0}, DefaultMaxVectorLen, DefaultMaxIntBytes); err == nil {
		t.Error("short vector must fail")
	}
	huge := make([]byte, 4)
	huge[0] = 0xFF
	if _, _, err := ScanVectorBound(huge, DefaultMaxVectorLen, DefaultMaxIntBytes); err == nil {
		t.Error("implausible vector length must fail")
	}
	// What follows a vector is the caller's: the scan hands it back.
	vec, _ := MarshalVector([]Ciphertext{{V: big.NewInt(1)}})
	if _, rest, err := ScanVectorBound(append(vec, 7), DefaultMaxVectorLen, DefaultMaxIntBytes); err != nil || !bytes.Equal(rest, []byte{7}) {
		t.Errorf("trailing vector bytes: rest %x, error %v", rest, err)
	}
}

func TestWireDeterministic(t *testing.T) {
	a := AppendInt(nil, big.NewInt(12345))
	b := AppendInt(nil, big.NewInt(12345))
	if !bytes.Equal(a, b) {
		t.Error("encoding not canonical")
	}
}

// TestPartialDecryptionsAllocs pins what a gathered share costs the
// release: its image is read element by element into one scratch value,
// which grows to the widest element once — nothing per element, no
// intermediate vector, from an image copied off a frame and from one
// NewVector encoded alike.
func TestPartialDecryptionsAllocs(t *testing.T) {
	vals := make([]Ciphertext, 50)
	for i := range vals {
		vals[i].V = new(big.Int).Lsh(big.NewInt(int64(i+1)), 1000)
	}
	encoded := NewVector(vals)
	view, _, err := ScanVectorBound(encoded.AppendTo(nil), len(vals), DefaultMaxIntBytes)
	if err != nil {
		t.Fatal(err)
	}
	fromImage := view.Copy()
	before := ReadWireStats()
	for _, c := range []struct {
		name string
		v    *Vector
	}{{"copied", fromImage}, {"encoded", encoded}} {
		var scratch big.Int
		if got := testing.AllocsPerRun(50, func() {
			r := c.v.Operand().Reader()
			for i := 0; i < c.v.Len(); i++ {
				r.Next(&scratch)
			}
		}); got != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, got)
		}
	}
	if got := ReadWireStats().Materialized - before.Materialized; got != 0 {
		t.Errorf("reading the shares materialized %d vectors", got)
	}
}

// TestNewVectorSharedReads: a vector NewVector built is its image from
// the start, so goroutines that send it and read it through operands at
// once only read it: nothing encodes it under them, and the race
// detector finds no write.
func TestNewVectorSharedReads(t *testing.T) {
	vals := make([]Ciphertext, 16)
	for i := range vals {
		vals[i].V = new(big.Int).Lsh(big.NewInt(int64(i*i-30)), 40)
	}
	want, err := MarshalVector(vals)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVector(vals)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(send bool) {
			defer wg.Done()
			if send {
				if got := v.AppendTo(nil); !bytes.Equal(got, want) {
					t.Errorf("sent %x, want %x", got, want)
				}
				return
			}
			var x big.Int
			r := v.Operand().Reader()
			for i := range vals {
				if r.Next(&x).Cmp(vals[i].V) != 0 {
					t.Errorf("element %d read %v, want %v", i, &x, vals[i].V)
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
}
