package homenc_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/randx"
)

// mergeCase is one scheme under the MergeVec differential tests, with a
// generator of operands as ragged as the scheme admits.
type mergeCase struct {
	name    string
	sch     homenc.Scheme
	operand func(rng *randx.RNG) *big.Int
}

// raggedInt draws a value of 0 to maxWords words, negative half the
// time when signed.
func raggedInt(rng *randx.RNG, maxWords int, signed bool) *big.Int {
	v := new(big.Int)
	for w := rng.IntN(maxWords + 1); w > 0; w-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(rng.Uint64()))
	}
	if signed && rng.IntN(2) == 0 {
		v.Neg(v)
	}
	return v
}

func mergeCases(t testing.TB) []mergeCase {
	t.Helper()
	unbounded, err := plain.New(nil, 64, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := new(big.Int).Lsh(big.NewInt(1), 130)
	space.Sub(space, big.NewInt(5))
	bounded, err := plain.New(space, 64, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []mergeCase{
		{"plain/unbounded", unbounded, func(rng *randx.RNG) *big.Int { return raggedInt(rng, 4, true) }},
		// Operands above the space and below zero: what a peer may send.
		{"plain/bounded", bounded, func(rng *randx.RNG) *big.Int { return raggedInt(rng, 4, true) }},
	}
	for _, s := range []int{1, 2} {
		dj, err := damgardjurik.NewTestScheme(128, s, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, mergeCase{fmt.Sprintf("damgardjurik/s=%d", s), dj, func(rng *randx.RNG) *big.Int {
			switch rng.IntN(6) {
			case 0:
				// A short group element: narrower than the modulus.
				return new(big.Int).SetUint64(rng.Uint64() | 1)
			case 1:
				// Negative, and above the modulus: what a peer may send.
				return new(big.Int).Neg(dj.Encrypt(raggedInt(rng, 2, true)).V)
			case 2:
				c := dj.Encrypt(raggedInt(rng, 2, true)).V
				return c.Add(c, new(big.Int).Mul(dj.NS1, big.NewInt(int64(1+rng.IntN(1000)))))
			}
			return dj.Encrypt(raggedInt(rng, 2, true)).V
		}})
	}
	return cases
}

func drawVector(c mergeCase, rng *randx.RNG, n int) []homenc.Ciphertext {
	out := make([]homenc.Ciphertext, n)
	for i := range out {
		if rng.IntN(8) == 0 {
			out[i].V = new(big.Int) // zero: the negative-zero encoding's value
			continue
		}
		out[i].V = c.operand(rng)
	}
	return out
}

func snapshot(cts []homenc.Ciphertext) []*big.Int {
	out := make([]*big.Int, len(cts))
	for i, c := range cts {
		out[i] = new(big.Int).Set(c.V)
	}
	return out
}

func requireUnchanged(t *testing.T, what string, cts []homenc.Ciphertext, want []*big.Int) {
	t.Helper()
	for i, c := range cts {
		if c.V.Cmp(want[i]) != 0 {
			t.Fatalf("%s[%d] changed: %v, was %v", what, i, c.V, want[i])
		}
	}
}

// sloppyVector encodes cts the way another implementation may: valid,
// but with a leading zero byte on some magnitudes and zero sent as
// negative zero.
func sloppyVector(rng *randx.RNG, cts []homenc.Ciphertext) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(cts)))
	for _, c := range cts {
		mag := c.V.Bytes()
		tag := byte(0x01)
		if c.V.Sign() < 0 {
			tag = 0x02
		}
		switch {
		case c.V.Sign() == 0:
			tag = 0x02
		case rng.IntN(2) == 0:
			mag = append([]byte{0}, mag...)
		}
		out = append(binary.BigEndian.AppendUint32(append(out, tag), uint32(len(mag))), mag...)
	}
	return out
}

// operandForm presents a vector to the kernel in one of the forms it
// reads: the image NewVector encodes, an owned image copied from a
// frame, a scanned view of a canonical frame, or a scanned view of a
// valid non-canonical one. It returns the
// operand and the bytes the operand reads, if any, so a test can check
// they are left alone.
type operandForm struct {
	name string
	of   func(t *testing.T, rng *randx.RNG, sch homenc.Scheme, cts []homenc.Ciphertext) (homenc.Operand, []byte)
}

func scanned(t *testing.T, sch homenc.Scheme, enc []byte) homenc.VectorView {
	t.Helper()
	v, rest, err := homenc.ScanVectorBound(enc, 64, sch.CiphertextBytes()*8)
	if err != nil || len(rest) != 0 {
		t.Fatalf("scan: %v (%d trailing bytes)", err, len(rest))
	}
	return v
}

var operandForms = []operandForm{
	{"new-vector", func(_ *testing.T, _ *randx.RNG, _ homenc.Scheme, cts []homenc.Ciphertext) (homenc.Operand, []byte) {
		v := homenc.NewVector(cts)
		return v.Operand(), v.AppendTo(nil)
	}},
	{"image", func(t *testing.T, _ *randx.RNG, sch homenc.Scheme, cts []homenc.Ciphertext) (homenc.Operand, []byte) {
		enc, err := homenc.MarshalVector(cts)
		if err != nil {
			t.Fatal(err)
		}
		v := scanned(t, sch, enc).Copy() // an owned image
		img := v.AppendTo(nil)
		return v.Operand(), img
	}},
	{"view", func(t *testing.T, _ *randx.RNG, sch homenc.Scheme, cts []homenc.Ciphertext) (homenc.Operand, []byte) {
		enc, err := homenc.MarshalVector(cts)
		if err != nil {
			t.Fatal(err)
		}
		return scanned(t, sch, enc).Operand(), enc
	}},
	{"noncanonical-view", func(t *testing.T, rng *randx.RNG, sch homenc.Scheme, cts []homenc.Ciphertext) (homenc.Operand, []byte) {
		enc := sloppyVector(rng, cts)
		return scanned(t, sch, enc).Operand(), enc
	}},
}

// mergeShifts cross damgardjurik's crtDirectExpBits: 2^31 is a 32-bit
// exponent (direct), 2^32 and 2^40 take the CRT split.
var mergeShifts = []uint{0, 1, 31, 32, 40}

// TestMergeVecMatchesElementwise: the kernel is Add(ScalarMul(a, 2^shift), b)
// element-wise, to the bit, whatever form each operand comes in and
// however many workers it may fan out over; its image is the canonical
// encoding of those values; and it leaves its inputs alone.
func TestMergeVecMatchesElementwise(t *testing.T) {
	for _, c := range mergeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			rng := randx.New(19, 1)
			for _, shift := range mergeShifts {
				for _, n := range []int{0, 1, 9} {
					a, b := drawVector(c, rng, n), drawVector(c, rng, n)
					wasA, wasB := snapshot(a), snapshot(b)
					k := new(big.Int).Lsh(big.NewInt(1), shift)
					want := make([]homenc.Ciphertext, n)
					for i := range want {
						want[i] = c.sch.Add(c.sch.ScalarMul(a[i], k), b[i])
					}
					wantImg, err := homenc.MarshalVector(want)
					if err != nil {
						t.Fatal(err)
					}
					for i, fa := range operandForms {
						for j, fb := range operandForms {
							// 1, 2 and 3 workers: serial, and chunks filling
							// regions of one image.
							workers := 1 + (i+j)%3
							opA, bytesA := fa.of(t, rng, c.sch, a)
							opB, bytesB := fb.of(t, rng, c.sch, b)
							wasBytesA, wasBytesB := bytes.Clone(bytesA), bytes.Clone(bytesB)
							got := mergeVec(c.sch, opA, shift, opB, workers)
							if got.Len() != n {
								t.Fatalf("shift %d, %s + %s: %d results for %d elements", shift, fa.name, fb.name, got.Len(), n)
							}
							if img := got.AppendTo(nil); !bytes.Equal(img, wantImg) {
								vals := got.CopyValues()
								for i := range want {
									if vals[i].V.Cmp(want[i].V) != 0 {
										t.Fatalf("shift %d, %s + %s, %d workers, element %d: MergeVec = %v, Add(ScalarMul) = %v", shift, fa.name, fb.name, workers, i, vals[i].V, want[i].V)
									}
								}
								t.Fatalf("shift %d, %s + %s, %d workers: right values, non-canonical image %x, want %x", shift, fa.name, fb.name, workers, img, wantImg)
							}
							if !bytes.Equal(bytesA, wasBytesA) || !bytes.Equal(bytesB, wasBytesB) {
								t.Fatalf("shift %d, %s + %s: an operand's bytes changed", shift, fa.name, fb.name)
							}
						}
					}
					requireUnchanged(t, "a", a, wasA)
					requireUnchanged(t, "b", b, wasB)
				}
			}
		})
	}
}

// mergeVec merges into a vector of its own.
func mergeVec(sch homenc.Scheme, a homenc.Operand, shift uint, b homenc.Operand, workers int) *homenc.Vector {
	dst := new(homenc.Vector)
	sch.MergeVec(dst, a, shift, b, workers)
	return dst
}

// TestPlainMergeVecStaysInItsSlab: the plain kernel sizes its result
// image and its scratch slab before it computes, so the arithmetic never
// outgrows either — a merge is the image, the vector and the slab its
// operands and working value are decoded and computed in, whatever the
// operand widths, signs and shift, and whatever form the operands come
// in.
func TestPlainMergeVecStaysInItsSlab(t *testing.T) {
	c := mergeCases(t)[0]
	rng := randx.New(37, 1)
	for _, shift := range []uint{0, 1, 31, 32, 40, 63, 64, 65, 200} {
		a, b := drawVector(c, rng, 40), drawVector(c, rng, 40)
		for _, f := range operandForms {
			opA, _ := f.of(t, rng, c.sch, a)
			opB, _ := f.of(t, rng, c.sch, b)
			if got := testing.AllocsPerRun(10, func() { mergeVec(c.sch, opA, shift, opB, 2) }); got > 3 {
				t.Errorf("shift %d, %s: %.0f allocations, want the image, the vector and the scratch slab", shift, f.name, got)
			}
		}
	}
}

// TestMergeVecWindowsAreIsolated: a merged vector's values, once
// decoded, share one slab, but each owns a capacity-clipped window of it
// — growing one in place far past its window moves it away instead of
// overwriting its neighbours — and the image they were decoded from is
// left alone.
func TestMergeVecWindowsAreIsolated(t *testing.T) {
	for _, c := range mergeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			rng := randx.New(23, 1)
			for _, shift := range []uint{0, 40} {
				a, b := drawVector(c, rng, 7), drawVector(c, rng, 7)
				wasA, wasB := snapshot(a), snapshot(b)
				merged := mergeVec(c.sch, homenc.NewVector(a).Operand(), shift, homenc.NewVector(b).Operand(), 2)
				img := merged.AppendTo(nil)
				got := merged.CopyValues()
				for i := range got {
					was := snapshot(got)
					got[i].V.Lsh(got[i].V, 4096)
					was[i].Lsh(was[i], 4096)
					requireUnchanged(t, fmt.Sprintf("results after growing %d", i), got, was)
				}
				if !bytes.Equal(merged.AppendTo(nil), img) {
					t.Fatal("growing decoded values changed the image they came from")
				}
				requireUnchanged(t, "a", a, wasA)
				requireUnchanged(t, "b", b, wasB)
			}
		})
	}
}

func TestMergeVecRejectsLengthMismatch(t *testing.T) {
	for _, c := range mergeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("MergeVec accepted vectors of different lengths")
				}
			}()
			rng := randx.New(29, 1)
			mergeVec(c.sch, homenc.NewVector(drawVector(c, rng, 3)).Operand(), 1, homenc.NewVector(drawVector(c, rng, 2)).Operand(), 1)
		})
	}
}

// FuzzMergeVecFromView: whatever bytes ScanVectorBound accepts at a
// scheme's bound, the kernel merges straight from the scanned view —
// fanned out over two workers — without panicking, to the image it
// computes serially from the view's materialized values. The input holds two vectors back to back; when
// the second does not scan to the first's length the first is merged
// with itself.
func FuzzMergeVecFromView(f *testing.F) {
	rng := randx.New(41, 1)
	cases := mergeCases(f)
	for _, c := range cases {
		a, b := drawVector(c, rng, 3), drawVector(c, rng, 3)
		ea, _ := homenc.MarshalVector(a)
		eb, _ := homenc.MarshalVector(b)
		f.Add(append(ea, eb...), uint8(3))
		f.Add(append(sloppyVector(rng, a), sloppyVector(rng, b)...), uint8(40))
	}
	f.Add([]byte{0, 0, 0, 1, 0x02, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{0, 0, 0, 2, 0x01, 0, 0, 0, 1, 0, 0x02, 0, 0, 0, 2, 0, 0xFF}, uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		for _, c := range cases {
			bound := c.sch.CiphertextBytes()
			va, rest, err := homenc.ScanVectorBound(data, 64, bound)
			if err != nil {
				return
			}
			vb, _, err := homenc.ScanVectorBound(rest, 64, bound)
			if err != nil || vb.Len() != va.Len() {
				vb = va
			}
			s := uint(shift % 48)
			got := mergeVec(c.sch, va.Operand(), s, vb.Operand(), 2)
			want := mergeVec(c.sch, homenc.NewVector(va.Values()).Operand(), s, homenc.NewVector(vb.Values()).Operand(), 1)
			if !bytes.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
				t.Fatalf("%s, shift %d: merging the view differs from merging its values", c.name, s)
			}
		}
	})
}

// TestVectorWriterChunksJoin: chunks filled in their own regions of one
// image join into the image a serial writer builds — also when a chunk
// outgrows the region it was given and moves away.
func TestVectorWriterChunksJoin(t *testing.T) {
	rng := randx.New(43, 1)
	vals := make([]*big.Int, 9)
	for i := range vals {
		vals[i] = raggedInt(rng, 3, true)
	}
	serial := homenc.NewVectorWriter(len(vals), 0)
	for _, v := range vals {
		serial.Append(v)
	}
	want := serial.Vector().AppendTo(nil)
	for _, sizes := range [][]int{{24, 24, 24}, {0, 72, 72}, {72, 0, 0}} {
		w := homenc.NewVectorWriter(len(vals), 72)
		chunks := []homenc.VectorWriter{w.Chunk(3, sizes[0]), w.Chunk(3, sizes[1]), w.Chunk(3, sizes[2])}
		for c := range chunks {
			for _, v := range vals[3*c : 3*c+3] {
				chunks[c].Append(v)
			}
		}
		w.Join(chunks)
		if got := w.Vector().AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("chunk sizes %v: joined image %x, want %x", sizes, got, want)
		}
	}
}
