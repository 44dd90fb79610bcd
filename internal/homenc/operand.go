package homenc

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"slices"
)

// The merge kernels' two sides. A kernel reads each operand element by
// element from whichever form the operand has — values, an owned
// Vector's image, or a scanned VectorView that still aliases its frame
// — and appends each result straight into the one image it returns.
// Nothing in between is materialized: an encoded element is decoded
// into a scratch value the kernel reuses for the next one.

// Operand is a ciphertext vector as a merge kernel reads it: its values,
// or its element encodings read in place. An Operand only reads: it
// never builds or caches the vector's other form, so a vector several
// goroutines share may be read through Operands concurrently.
type Operand struct {
	n   int
	cts []Ciphertext // the values; nil when enc holds the elements
	enc []byte       // the element encodings, count prefix stripped
}

// ValuesOperand reads a vector of ciphertext values.
func ValuesOperand(cts []Ciphertext) Operand { return Operand{n: len(cts), cts: cts} }

// Operand returns the vector as a kernel operand: its values when it
// holds them (they need no decoding), its image otherwise.
func (v *Vector) Operand() Operand {
	switch {
	case v.Len() == 0:
		return Operand{}
	case v.cts != nil:
		return Operand{n: v.n, cts: v.cts}
	}
	return Operand{n: v.n, enc: v.img[4:]}
}

// Operand returns the scanned vector as a kernel operand, reading the
// scanned buffer in place: it is valid only as long as that buffer is.
// A non-canonical encoding reads as the values it encodes.
func (v VectorView) Operand() Operand {
	if v.n == 0 {
		return Operand{}
	}
	return Operand{n: v.n, enc: v.b[4:]}
}

// Len returns the element count.
func (o Operand) Len() int { return o.n }

// Slice returns elements [lo, hi) — one chunk of a fanned-out merge.
// An encoding is walked from its start, one header per element.
func (o Operand) Slice(lo, hi int) Operand {
	if o.cts != nil {
		return ValuesOperand(o.cts[lo:hi])
	}
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
func (o Operand) Reader() OperandReader { return OperandReader{cts: o.cts, enc: o.enc} }

// OperandReader reads an Operand's elements in order. Reading past the
// last element panics.
type OperandReader struct {
	cts []Ciphertext
	enc []byte
}

// Next returns the next element. A value is returned as it is stored;
// an encoding is decoded into scratch, whose words are reused when they
// suffice — so a kernel that passes the same scratch for every element
// decodes a whole vector into one small, growing buffer. The result is
// read-only, and valid until scratch is next written.
func (r *OperandReader) Next(scratch *big.Int) *big.Int {
	if r.cts != nil {
		v := r.cts[0].V
		r.cts = r.cts[1:]
		return v
	}
	r.enc = r.enc[setInt(scratch, r.enc):]
	return scratch
}

// NextBits skips the next element and returns a bound on the bit
// length of its magnitude — exact unless a peer sent leading zero bytes
// — which is what a kernel sizing its output image reads before it
// computes.
func (r *OperandReader) NextBits() int {
	if r.cts != nil {
		v := r.cts[0].V
		r.cts = r.cts[1:]
		return v.BitLen()
	}
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
// the last one is in.
type VectorWriter struct {
	n, left int
	img     []byte
	carved  int // bytes past len(img) handed to Chunk writers
	region  int // a Chunk writer's region: its capacity until it outgrows it
}

// NewVectorWriter starts the image of an n-element vector whose values
// take at most size magnitude bytes in all, so that appending never
// regrows the image.
func NewVectorWriter(n, size int) VectorWriter {
	img := make([]byte, 4, 4+n*intHeader+size)
	binary.BigEndian.PutUint32(img, uint32(n))
	return VectorWriter{n: n, left: n, img: img}
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

// Vector publishes the image as an image-only Vector. Every element
// must have been appended.
func (w *VectorWriter) Vector() *Vector {
	if w.left != 0 {
		panic("homenc: vector image published with elements missing")
	}
	if w.n == 0 {
		return nil
	}
	return &Vector{n: w.n, img: w.img}
}

// CopyValues returns the vector's values in a slice of its own — decoded
// from the image into a slab of their own when the vector holds no
// values. Unlike Values it leaves the vector as it is, so it is a read
// even of a vector that several goroutines share, and the caller may
// replace elements of the result.
func (v *Vector) CopyValues() []Ciphertext {
	switch {
	case v.Len() == 0:
		return nil
	case v.cts != nil:
		return append([]Ciphertext(nil), v.cts...)
	}
	return decodeVector(v.img[4:], v.n)
}
