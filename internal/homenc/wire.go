package homenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Wire formats: in a deployment the Diptych's encrypted means travel
// between devices on every gossip exchange, so ciphertexts and partial
// decryptions need a compact canonical encoding. An integer is a 1-byte
// sign/kind tag, a 4-byte big-endian length, and the magnitude bytes; a
// vector is a 4-byte count and its integers. A partial decryption is an
// element of the ciphertext group, so a key-share's partial decryptions
// of a vector are a Vector too: the share index is the key the set is
// held under, never repeated per element.
//
// Vectors that cross the wire are immutable, and most of them are sent
// or received far more often than they change: a share set is re-sent
// on every leg of every decryption cycle but changes only when a share
// is gathered. A Vector is therefore its wire image and nothing else —
// the canonical encoding, written by the encryption, merge or key-share
// application that produced it (a VectorWriter), or taken from the frame
// or journal record it arrived in — and the crypto reads that image
// element by element (Operand) rather than materializing it. The
// receive side scans a frame structurally (ScanVectorBound and
// ScanIntBound: every bound checked, nothing allocated) into views that
// alias the frame; a merge reads a view in place (VectorView.Operand),
// and Copy detaches one into an owned, canonical image.

const (
	wirePositive byte = 0x01
	wireNegative byte = 0x02
)

// DefaultMaxIntBytes bounds the magnitude of a decoded integer when the
// caller supplies no tighter bound: 64 KiB covers Damgård–Jurik
// ciphertexts up to a 4096-bit modulus at very high degrees with two
// orders of magnitude to spare, while refusing the 4 GiB allocations a
// hostile length prefix could otherwise request.
const DefaultMaxIntBytes = 64 << 10

// DefaultMaxVectorLen bounds the element count of a decoded ciphertext
// vector when the caller supplies no tighter bound.
const DefaultMaxVectorLen = 1 << 20

// intHeader is the tag + length prefix of one encoded integer.
const intHeader = 5

// MarshalVector encodes a ciphertext vector (the Diptych means payload)
// with a count prefix.
func MarshalVector(cts []Ciphertext) ([]byte, error) {
	for _, c := range cts {
		if c.V == nil {
			return nil, errors.New("homenc: nil ciphertext")
		}
	}
	return appendVector(make([]byte, 0, vectorWireSize(cts)), cts), nil
}

// IntWireSize is the encoded size of v in the canonical
// sign/length/magnitude format.
func IntWireSize(v *big.Int) int { return intHeader + (v.BitLen()+7)/8 }

// AppendInt appends v's canonical encoding to dst — the building block
// every encoder in the wire protocol layer uses, so an integer goes
// from its big.Int straight into the frame buffer.
func AppendInt(dst []byte, v *big.Int) []byte {
	n := (v.BitLen() + 7) / 8
	tag := wirePositive
	if v.Sign() < 0 {
		tag = wireNegative
	}
	dst = append(slices.Grow(dst, intHeader+n), tag, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	v.FillBytes(dst[len(dst) : len(dst)+n])
	return dst[:len(dst)+n]
}

// ScanIntBound checks one encoded integer at the front of data without
// building it: tag, a magnitude length within maxBytes, and the bytes
// actually present. It returns the encoded size and whether the
// encoding is canonical (the one AppendInt produces: no leading zero
// byte, no negative zero).
func ScanIntBound(data []byte, maxBytes int) (size int, canonical bool, err error) {
	if len(data) < intHeader {
		return 0, false, errors.New("homenc: short integer encoding")
	}
	kind := data[0]
	if kind != wirePositive && kind != wireNegative {
		return 0, false, fmt.Errorf("homenc: unknown integer tag 0x%02x", kind)
	}
	n := binary.BigEndian.Uint32(data[1:])
	if maxBytes < 0 {
		maxBytes = 0
	}
	if uint64(n) > uint64(maxBytes) {
		return 0, false, fmt.Errorf("homenc: integer magnitude %d bytes exceeds bound %d", n, maxBytes)
	}
	if uint32(len(data)-intHeader) < n {
		return 0, false, errors.New("homenc: truncated integer encoding")
	}
	if n == 0 {
		return intHeader, kind == wirePositive, nil
	}
	return intHeader + int(n), data[intHeader] != 0, nil
}

// UnmarshalIntBound decodes one AppendInt integer from the front of
// data, rejecting magnitudes above maxBytes before allocating, and
// returns the remaining bytes. The bound is what protects a network
// endpoint from a malicious frame advertising a huge integer.
func UnmarshalIntBound(data []byte, maxBytes int) (*big.Int, []byte, error) {
	size, _, err := ScanIntBound(data, maxBytes)
	if err != nil {
		return nil, nil, err
	}
	v := new(big.Int).SetBytes(data[intHeader:size])
	if data[0] == wireNegative {
		v.Neg(v)
	}
	return v, data[size:], nil
}

func vectorWireSize(cts []Ciphertext) int {
	size := 4
	for _, c := range cts {
		size += IntWireSize(c.V)
	}
	return size
}

func appendVector(dst []byte, cts []Ciphertext) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(cts)))
	for _, c := range cts {
		dst = AppendInt(dst, c.V)
	}
	return dst
}

// wordBytes is the size of one big.Word.
const wordBytes = bits.UintSize / 8

// slab backs a decoded vector of big.Int values with two allocations:
// the values themselves and one word slab their magnitudes are carved
// from.
type slab struct {
	ints  []big.Int
	words []big.Word // the part of the word slab not yet handed out
}

// newSlab returns a slab for n values whose windows total words words.
func newSlab(n, words int) slab {
	return slab{ints: make([]big.Int, n), words: make([]big.Word, words)}
}

// carve returns value i, zero, over its own window of w words of the
// slab. The window is capacity-clipped: a value that outgrows it moves
// to a fresh array instead of growing into its neighbour.
func (s *slab) carve(i, w int) *big.Int {
	z := &s.ints[i]
	z.SetBits(s.words[:0:w])
	s.words = s.words[w:]
	return z
}

// decodeInts materializes the n integers of an already-scanned encoding
// into one slab, so a vector costs two allocations instead of two per
// element.
func decodeInts(b []byte, n int) []big.Int {
	words := 0
	for p, i := b, 0; i < n; i++ {
		m := int(binary.BigEndian.Uint32(p[1:]))
		words += (m + wordBytes - 1) / wordBytes
		p = p[intHeader+m:]
	}
	vals := newSlab(n, words)
	for i := 0; i < n; i++ {
		m := int(binary.BigEndian.Uint32(b[1:]))
		b = b[setInt(vals.carve(i, (m+wordBytes-1)/wordBytes), b):]
	}
	return vals.ints
}

// setInt sets z to the scanned integer encoding at the front of enc and
// returns the encoding's size. SetBytes reuses z's words when they have
// the capacity: a carved slab window always does, and a kernel's scratch
// value grows to its vector's widest element once. SetBytes sizes its
// words by bytes while a kernel sizes its scratch by bits (NextBits), so
// the leading zero bytes only a non-canonical encoding has go first.
func setInt(z *big.Int, enc []byte) int {
	size := intHeader + int(binary.BigEndian.Uint32(enc[1:]))
	mag := enc[intHeader:size]
	for len(mag) > 0 && mag[0] == 0 {
		mag = mag[1:]
	}
	z.SetBytes(mag)
	if enc[0] == wireNegative {
		z.Neg(z)
	}
	return size
}

// wireStats counts how often the wire images pay off; see WireStats.
var wireStats struct {
	sends, scanned, materialized atomic.Int64
}

// WireStats reports, process-wide, the property the wire images depend
// on — a vector is sent or received more often than it changes. Sends
// counts vectors appended to a frame or journal record, each straight
// from its image; Scanned counts scans of non-empty vectors off received
// frames (a sum leg is scanned twice: to vet it, and to merge from it),
// Materialized how many vectors were ever turned into big.Int values —
// a merge turns none.
type WireStats struct {
	Sends, Scanned, Materialized int64
}

// ReadWireStats snapshots the process-wide wire-image counters.
func ReadWireStats() WireStats {
	return WireStats{
		Sends:        wireStats.sends.Load(),
		Scanned:      wireStats.scanned.Load(),
		Materialized: wireStats.materialized.Load(),
	}
}

// emptyImage is the encoding of a zero-length vector.
var emptyImage = make([]byte, 4)

// Vector is a ciphertext vector as its canonical wire image (the
// MarshalVector encoding), which is what the merge kernels and the
// decryption read and what its sends and journal records append. A nil
// *Vector is the empty vector. Every method of a Vector but Rewrite and
// Set is a pure read, by any number of goroutines. A Vector does not
// change once published, except that the participant owning a sum state
// reuses its buffer: Rewrite and Set start the Vector over, and nobody
// else may hold it then.
type Vector struct {
	n   int
	img []byte
	// expected is the image size the owner expects to rewrite v up to
	// (Expect): what Rewrite allocates when the buffer is too small.
	expected int
}

// NewVector encodes a ciphertext vector as its image; cts is only read.
// A producer that has its ciphertexts one at a time appends them to a
// VectorWriter instead, and builds no slice of them.
func NewVector(cts []Ciphertext) *Vector {
	return &Vector{n: len(cts), img: appendVector(make([]byte, 0, vectorWireSize(cts)), cts)}
}

// Len returns the element count.
func (v *Vector) Len() int {
	if v == nil {
		return 0
	}
	return v.n
}

// image returns the vector's encoding: the empty vector's for a nil or
// never written Vector.
func (v *Vector) image() []byte {
	if v.Len() == 0 {
		return emptyImage
	}
	return v.img
}

// WireSize is the length of the vector's encoding.
func (v *Vector) WireSize() int { return len(v.image()) }

// AppendTo appends the vector's encoding to dst.
func (v *Vector) AppendTo(dst []byte) []byte {
	if v != nil {
		wireStats.sends.Add(1)
	}
	return append(dst, v.image()...)
}

func decodeVector(b []byte, n int) []Ciphertext {
	wireStats.materialized.Add(1)
	ints := decodeInts(b, n)
	cts := make([]Ciphertext, n)
	for i := range cts {
		cts[i].V = &ints[i]
	}
	return cts
}

// VectorView is a scanned, not yet materialized ciphertext vector: it
// aliases the buffer it was scanned from and is valid only as long as
// that buffer is. Copy detaches it.
type VectorView struct {
	n         int
	canonical bool
	b         []byte // the whole encoding, count prefix included
}

// ScanVectorBound checks a MarshalVector encoding at the front of data
// without building anything — at most maxLen elements, every magnitude
// within maxBytes, every byte present — and returns a view of it plus
// the remaining bytes.
func ScanVectorBound(data []byte, maxLen, maxBytes int) (VectorView, []byte, error) {
	v, rest, err := scanVector(data, maxLen, maxBytes)
	if err == nil && v.n > 0 {
		wireStats.scanned.Add(1)
	}
	return v, rest, err
}

// VettedVector returns the view of the vector encoding at the front of
// data, which ScanVectorBound has already accepted, and the bytes after
// it: how a reader walks a buffer it vetted once. It checks no bound
// and counts no scan.
func VettedVector(data []byte) (VectorView, []byte) {
	v, rest, _ := scanVector(data, math.MaxInt, math.MaxInt)
	return v, rest
}

func scanVector(data []byte, maxLen, maxBytes int) (VectorView, []byte, error) {
	if len(data) < 4 {
		return VectorView{}, nil, errors.New("homenc: short vector")
	}
	n := binary.BigEndian.Uint32(data)
	if maxLen < 0 {
		maxLen = 0
	}
	if uint64(n) > uint64(maxLen) {
		return VectorView{}, nil, fmt.Errorf("homenc: vector length %d exceeds bound %d", n, maxLen)
	}
	canonical := true
	off := 4
	for i := uint32(0); i < n; i++ {
		size, canon, err := ScanIntBound(data[off:], maxBytes)
		if err != nil {
			return VectorView{}, nil, err
		}
		canonical = canonical && canon
		off += size
	}
	return VectorView{n: int(n), canonical: canonical, b: data[:off]}, data[off:], nil
}

// Len returns the element count.
func (v VectorView) Len() int { return v.n }

// Values materializes the ciphertexts (independent of the scanned
// buffer).
func (v VectorView) Values() []Ciphertext {
	if v.n == 0 {
		return nil
	}
	return decodeVector(v.b[4:], v.n)
}

// Copy detaches the view into an owned Vector that keeps the image it
// arrived with. An encoding that is valid but not canonical (a peer
// other than this implementation produced it) is re-encoded canonically,
// so whatever this side sends on is canonical again, and the copy is an
// image either way.
func (v VectorView) Copy() *Vector {
	if v.n == 0 {
		return nil
	}
	if !v.canonical {
		return &Vector{n: v.n, img: canonicalImage(v.b, v.n)}
	}
	return &Vector{n: v.n, img: bytes.Clone(v.b)}
}

// canonicalImage re-encodes the valid encoding b of an n-element vector
// the way AppendInt encodes each value: its magnitude without leading
// zero bytes, and zero positive.
func canonicalImage(b []byte, n int) []byte {
	img := append(make([]byte, 0, len(b)), b[:4]...)
	b = b[4:]
	for i := 0; i < n; i++ {
		size := encodedSize(b)
		tag, mag := b[0], b[intHeader:size]
		for len(mag) > 0 && mag[0] == 0 {
			mag = mag[1:]
		}
		if len(mag) == 0 {
			tag = wirePositive
		}
		img = append(binary.BigEndian.AppendUint32(append(img, tag), uint32(len(mag))), mag...)
		b = b[size:]
	}
	return img
}
