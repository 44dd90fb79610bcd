package eesum

import (
	"math/big"
	"runtime"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/randx"
)

// mergeOperands returns two states of dim values, three epochs apart, so
// a merge rescales one side before adding.
func mergeOperands(dim int, value func(rng *randx.RNG) *big.Int) (a, b SumState) {
	rng := randx.New(31, 1)
	side := func(omega int64, epoch int) SumState {
		cts := make([]homenc.Ciphertext, dim)
		for j := range cts {
			cts[j].V = value(rng)
		}
		return SumState{CTs: cts, Omega: big.NewInt(omega), Epoch: epoch}
	}
	return side(3, 4), side(5, 7)
}

// imageOf returns cts as an image-only vector: a state at rest.
func imageOf(t *testing.T, cts []homenc.Ciphertext) *homenc.Vector {
	t.Helper()
	enc, err := homenc.MarshalVector(cts)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := homenc.ScanVectorBound(enc, len(cts), homenc.DefaultMaxIntBytes)
	if err != nil {
		t.Fatal(err)
	}
	return v.Copy()
}

// fixedPoint draws a signed 50-bit value: an encoded measure.
func fixedPoint(rng *randx.RNG) *big.Int { return big.NewInt(rng.Int64N(1<<50) - 1<<49) }

// bytesPerRun is the heap the calls to f allocate, per call.
func bytesPerRun(runs int, f func()) float64 {
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestMergeSumAllocs pins the property the vector kernel exists for: a
// merge allocates per vector, not per ciphertext. The plain merge of
// values, decoded back into values (MergeSum), is the image, the
// decoded slab and a handful of headers (213 allocations at the commit
// before the kernel). Fed the way a sum commit feeds it — this side's
// state an image, the peer's a view still in its frame — it allocates
// the result image and a small constant: decoding either operand would
// add a 50-value slab. The Damgård–Jurik exponentiations allocate inside
// math/big whatever the kernel does — and differently under the race
// detector — so that merge is held against the element-wise loop it
// replaced, measured in the same process (451; the merge itself took
// 464 at the commit before the kernel).
func TestMergeSumAllocs(t *testing.T) {
	const dim = 50
	sch := plainScheme(t, 5)
	a, b := mergeOperands(dim, fixedPoint)
	if got := testing.AllocsPerRun(100, func() { MergeSum(sch, a, b, 1) }); got > 8 {
		t.Errorf("plain MergeSum of %d elements: %.0f allocations, want at most 8", dim, got)
	}
	own := SumSide{CTs: imageOf(t, a.CTs), Omega: a.Omega, Epoch: a.Epoch}.Operand()
	frame, err := homenc.MarshalVector(b.CTs)
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := homenc.ScanVectorBound(frame, dim, 64)
	if err != nil {
		t.Fatal(err)
	}
	peer := SumOperand{CTs: view.Operand(), Omega: b.Omega, Epoch: b.Epoch}
	before := homenc.ReadWireStats()
	result := mergeSum(sch, own, peer, 1)
	const slack = 320 // the vector, the weight, the scratch words, the image's size class
	if got, img := bytesPerRun(200, func() { mergeSum(sch, own, peer, 1) }), result.CTs.WireSize(); got > float64(img+slack) {
		t.Errorf("plain merge of an image with a scanned view: %.0f bytes, want at most the %d-byte image + %d", got, img, slack)
	}
	if got := homenc.ReadWireStats().Materialized - before.Materialized; got != 0 {
		t.Errorf("merging from a view materialized %d vectors", got)
	}
	dj, err := damgardjurik.NewTestScheme(1024, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Full-width residues rather than encryptions: Encrypt would wake the
	// scheme's background randomizer filler, whose allocations
	// AllocsPerRun cannot tell from the merge's.
	a, b = mergeOperands(dim, func(rng *randx.RNG) *big.Int {
		v := new(big.Int)
		for v.BitLen() < dj.NS1.BitLen() {
			v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(rng.Uint64()))
		}
		return v.Mod(v, dj.NS1)
	})
	k := big.NewInt(1 << 3) // the sides are three epochs apart
	elementwise := testing.AllocsPerRun(5, func() {
		out := make([]homenc.Ciphertext, dim)
		for j := range out {
			out[j] = dj.Add(dj.ScalarMul(a.CTs[j], k), b.CTs[j])
		}
	})
	if got := testing.AllocsPerRun(5, func() { MergeSum(dj, a, b, 1) }); got > elementwise {
		t.Errorf("serial DJ-1024 MergeSum of %d elements: %.0f allocations, element-wise Add(ScalarMul) takes %.0f", dim, got, elementwise)
	}
}

// TestMergeSumChunksMatchSerial: fanning the kernel out over chunks
// changes where the values are computed, never the values. The
// Damgård–Jurik kernel fans out; the plain one runs serial at any
// worker count.
func TestMergeSumChunksMatchSerial(t *testing.T) {
	dj, err := damgardjurik.NewTestScheme(128, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []homenc.Scheme{plainScheme(t, 5), dj} {
		for _, dim := range []int{1, 2, 7, 50} {
			a, b := mergeOperands(dim, fixedPoint)
			want := MergeSum(sch, a, b, 1)
			for _, workers := range []int{2, 3, 64} {
				// Both argument orders: either side may be the staler one.
				for _, got := range []SumState{MergeSum(sch, a, b, workers), MergeSum(sch, b, a, workers)} {
					if got.Epoch != want.Epoch || got.Omega.Cmp(want.Omega) != 0 || len(got.CTs) != dim {
						t.Fatalf("%s dim %d workers %d: state (%d, %v, %d), want (%d, %v, %d)", sch.Name(), dim, workers, got.Epoch, got.Omega, len(got.CTs), want.Epoch, want.Omega, dim)
					}
					for j := range got.CTs {
						if got.CTs[j].V.Cmp(want.CTs[j].V) != 0 {
							t.Fatalf("%s dim %d workers %d: element %d = %v, want %v", sch.Name(), dim, workers, j, got.CTs[j].V, want.CTs[j].V)
						}
					}
				}
			}
		}
	}
}

// TestNodeNoiseStreamMatchesFamily: the one-stream derivation is the
// family's element, draws the base source the same, and costs one stream.
func TestNodeNoiseStreamMatchesFamily(t *testing.T) {
	for _, tc := range []struct{ n, index int }{{1, 0}, {2, 1}, {7, 3}, {400, 0}, {400, 399}, {5, -1}} {
		family, one := randx.New(77, 2), randx.New(77, 2)
		streams := NodeNoiseStreams(family, tc.n)
		own := NodeNoiseStream(one, tc.n, tc.index)
		if family.Uint64() != one.Uint64() {
			t.Fatalf("n=%d index=%d: base source left in a different state", tc.n, tc.index)
		}
		if tc.index < 0 {
			if own != nil {
				t.Fatalf("n=%d: a stream was built for index %d", tc.n, tc.index)
			}
			continue
		}
		for i := 0; i < 8; i++ {
			if got, want := own.Uint64(), streams[tc.index].Uint64(); got != want {
				t.Fatalf("n=%d index=%d: draw %d = %#x, want %#x", tc.n, tc.index, i, got, want)
			}
		}
	}
	rng := randx.New(77, 2)
	if got := testing.AllocsPerRun(20, func() { NodeNoiseStream(rng, 400, 123) }); got > 3 {
		t.Errorf("NodeNoiseStream(400 nodes): %.0f allocations, want at most 3", got)
	}
}
