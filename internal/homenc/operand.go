package homenc

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"slices"
)

// The merge kernels' two sides. A kernel reads each operand element by
// element from its encoding — an owned Vector's image, or a scanned
// VectorView that still aliases its frame — and appends each result
// straight into the one image it returns. Nothing in between is
// materialized: an encoded element is decoded into a scratch value the
// kernel reuses for the next one.

// Operand is a ciphertext vector as a merge kernel reads it: its element
// encodings, read in place. An Operand only reads, so a vector several
// goroutines share may be read through Operands concurrently.
type Operand struct {
	n   int
	enc []byte // the element encodings, count prefix stripped
}

// Operand returns the vector's image as a kernel operand.
func (v *Vector) Operand() Operand { return Operand{n: v.Len(), enc: v.image()[4:]} }

// Operand returns the scanned vector as a kernel operand, reading the
// scanned buffer in place: it is valid only as long as that buffer is.
// A non-canonical encoding reads as the values it encodes.
func (v VectorView) Operand() Operand {
	if v.n == 0 {
		return Operand{}
	}
	return Operand{n: v.n, enc: v.b[4:]}
}

// Size returns how many bytes the operand's elements take in a vector
// image: their headers and magnitudes, without the count prefix.
func (o Operand) Size() int { return len(o.enc) }

// Len returns the element count.
func (o Operand) Len() int { return o.n }

// Slice returns elements [lo, hi) — one chunk of a fanned-out merge.
// The encoding is walked from its start, one header per element.
func (o Operand) Slice(lo, hi int) Operand {
	enc := o.enc
	for i := 0; i < lo; i++ {
		enc = enc[encodedSize(enc):]
	}
	end := 0
	for i := lo; i < hi; i++ {
		end += encodedSize(enc[end:])
	}
	return Operand{n: hi - lo, enc: enc[:end]}
}

// encodedSize is the size of the scanned integer encoding at the front
// of b.
func encodedSize(b []byte) int { return intHeader + int(binary.BigEndian.Uint32(b[1:])) }

// Reader returns a reader positioned at the first element.
func (o Operand) Reader() OperandReader { return OperandReader{enc: o.enc} }

// OperandReader reads an Operand's elements in order. Reading past the
// last element panics.
type OperandReader struct {
	enc []byte
}

// Next decodes the next element into scratch, whose words are reused
// when they suffice — so a kernel that passes the same scratch for
// every element decodes a whole vector into one small, growing buffer —
// and returns scratch.
func (r *OperandReader) Next(scratch *big.Int) *big.Int {
	r.enc = r.enc[setInt(scratch, r.enc):]
	return scratch
}

// NextBits skips the next element and returns a bound on the bit
// length of its magnitude — exact unless a peer sent leading zero bytes
// — which is what a kernel sizing its output image reads before it
// computes.
func (r *OperandReader) NextBits() int {
	size := encodedSize(r.enc)
	n := 8 * (size - intHeader)
	if size > intHeader {
		n -= 8 - bits.Len8(r.enc[intHeader])
	}
	r.enc = r.enc[size:]
	return n
}

// VectorWriter builds a vector's canonical image one value at a time —
// the output side of a merge kernel. Each value goes from the kernel's
// scratch straight into the image, and Vector publishes the image once
// the last one is in: as a new Vector, or as the Vector whose buffer
// Rewrite lent it.
type VectorWriter struct {
	n, left int
	img     []byte
	carved  int     // bytes past len(img) handed to Chunk writers
	region  int     // a Chunk writer's region: its capacity until it outgrows it
	dst     *Vector // the vector the image is published as; nil: a new one
}

// NewVectorWriter starts the image of an n-element vector whose values
// take at most size magnitude bytes in all, so that appending never
// regrows the image.
func NewVectorWriter(n, size int) VectorWriter {
	return startImage(make([]byte, 0, imageBytes(n, size)), n)
}

// imageBytes is the size of the image of an n-element vector whose
// values take size magnitude bytes in all.
func imageBytes(n, size int) int { return 4 + n*intHeader + size }

// startImage starts an n-element vector's image in img, which is empty.
func startImage(img []byte, n int) VectorWriter {
	img = binary.BigEndian.AppendUint32(img, uint32(n))
	return VectorWriter{n: n, left: n, img: img}
}

// Rewrite starts v over as the image of an n-element vector whose values
// take at most size magnitude bytes in all, writing into v's own buffer
// when it is large enough. A buffer that is not is replaced by one as
// large as the owner expects to need (Expect) when that is enough, else
// by one twice as large as needed (exactly as large when v had none), so
// a vector its owner rewrites again and again, its values growing with
// each rewrite, regrows a logarithmic number of times at most. v is
// published (VectorWriter.Vector) when the writer is done; until then
// it must not be read — it may be neither operand of the kernel writing
// it.
func (v *Vector) Rewrite(n, size int) VectorWriter {
	img, need := v.img[:0], imageBytes(n, size)
	if cap(img) < need {
		switch {
		case need <= v.expected:
			need = v.expected
		case cap(img) > 0:
			need *= 2
		}
		img = make([]byte, 0, need)
	}
	w := startImage(img, n)
	w.dst = v
	return w
}

// Expect tells v that its owner will rewrite it with images of up to
// size bytes: a Rewrite that finds v's buffer too small allocates that
// much, when it is more than the rewrite needs. A vector its owner
// rewrites again and again with widening values is then sized once, for
// the widest, instead of regrowing as they widen.
func (v *Vector) Expect(size int) { v.expected = size }

// Set makes v a copy of x with an image of its own, written into v's
// buffer when it is large enough, and returns v.
func (v *Vector) Set(x *Vector) *Vector {
	v.n, v.img = x.Len(), append(v.img[:0], x.image()...)
	return v
}

// Append encodes v as the next element. v is only read.
func (w *VectorWriter) Append(v *big.Int) {
	w.img = AppendInt(w.img, v)
	w.left--
}

// Chunk carves, out of w's spare capacity, a writer for the next count
// elements whose values take at most size magnitude bytes: the chunks of
// one vector fill concurrently, each in its own region of the image,
// and Join closes them up. A region is capacity-clipped, so a chunk
// that outgrows it moves away instead of overwriting the next one.
func (w *VectorWriter) Chunk(count, size int) VectorWriter {
	start := len(w.img) + w.carved
	end := min(start+count*intHeader+size, cap(w.img))
	w.carved = end - len(w.img)
	return VectorWriter{n: count, left: count, img: w.img[start:start:end], region: end - start}
}

// Join appends the filled chunks' elements to w in order, closing up
// the gaps the chunks' unused capacity left: a copy within the image,
// moving each chunk down onto the end of the one before. Should a chunk
// have outgrown its region, closing up in place could overwrite a chunk
// not yet moved, so the chunks are copied into a fresh image instead.
func (w *VectorWriter) Join(chunks []VectorWriter) {
	img := w.img
	for _, c := range chunks {
		if cap(c.img) != c.region {
			img = slices.Clip(img) // append into a fresh array
			break
		}
	}
	for _, c := range chunks {
		if c.left != 0 {
			panic("homenc: vector image joined with elements missing")
		}
		img = append(img, c.img...)
		w.left -= c.n
	}
	w.img, w.carved = img, 0
}

// Vector publishes the image as a Vector: the one Rewrite
// started over, or a new one (nil for the empty vector). Every element
// must have been appended.
func (w *VectorWriter) Vector() *Vector {
	if w.left != 0 {
		panic("homenc: vector image published with elements missing")
	}
	if w.dst != nil {
		w.dst.n, w.dst.img = w.n, w.img
		return w.dst
	}
	if w.n == 0 {
		return nil
	}
	return &Vector{n: w.n, img: w.img}
}

// CopyValues returns the vector's values decoded from its image into a
// slab of their own. It leaves the vector as it is, so it is a read even
// of a vector that several goroutines share, and the caller may replace
// elements of the result.
func (v *Vector) CopyValues() []Ciphertext {
	if v.Len() == 0 {
		return nil
	}
	return decodeVector(v.img[4:], v.n)
}
