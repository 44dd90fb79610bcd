package homenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Wire formats: in a deployment the Diptych's encrypted means travel
// between devices on every gossip exchange, so ciphertexts and partial
// decryptions need a compact canonical encoding. The format is a 1-byte
// sign/kind tag, a 4-byte big-endian length, and the magnitude bytes.
//
// Vectors that cross the wire are immutable, and most of them are sent
// or received far more often than they change: a decryption state is
// re-sent on every leg of every decryption cycle but changes only when
// a share is gathered or a state adopted. Vector and Partials therefore
// carry a cached wire image — the canonical encoding, built at the
// first send or taken from the frame the vector arrived in — and
// materialize big.Int values only when the crypto asks for them. The
// receive side scans a frame structurally (ScanVectorBound and
// friends: every bound checked, nothing allocated) into views that
// alias the frame; Copy detaches a view into an owned Vector.

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

// MarshalBinary implements encoding.BinaryMarshaler for ciphertexts.
func (c Ciphertext) MarshalBinary() ([]byte, error) {
	if c.V == nil {
		return nil, errors.New("homenc: nil ciphertext")
	}
	return MarshalInt(c.V), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with the
// DefaultMaxIntBytes magnitude bound.
func (c *Ciphertext) UnmarshalBinary(data []byte) error {
	return c.UnmarshalBinaryBound(data, DefaultMaxIntBytes)
}

// UnmarshalBinaryBound decodes a ciphertext whose magnitude must not
// exceed maxBytes (callers on a network boundary pass the scheme's
// actual ciphertext size, so a malicious frame cannot force a large
// allocation).
func (c *Ciphertext) UnmarshalBinaryBound(data []byte, maxBytes int) error {
	v, rest, err := UnmarshalIntBound(data, maxBytes)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("homenc: trailing bytes after ciphertext")
	}
	c.V = v
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for partial
// decryptions: a 4-byte share index followed by the value.
func (p PartialDecryption) MarshalBinary() ([]byte, error) {
	if p.V == nil {
		return nil, errors.New("homenc: nil partial decryption")
	}
	out := make([]byte, 4, 4+IntWireSize(p.V))
	binary.BigEndian.PutUint32(out, uint32(p.Index))
	return AppendInt(out, p.V), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with the
// DefaultMaxIntBytes magnitude bound.
func (p *PartialDecryption) UnmarshalBinary(data []byte) error {
	return p.UnmarshalBinaryBound(data, DefaultMaxIntBytes)
}

// UnmarshalBinaryBound decodes a partial decryption whose magnitude
// must not exceed maxBytes.
func (p *PartialDecryption) UnmarshalBinaryBound(data []byte, maxBytes int) error {
	if len(data) < 4 {
		return errors.New("homenc: short partial decryption")
	}
	idx := binary.BigEndian.Uint32(data)
	v, rest, err := UnmarshalIntBound(data[4:], maxBytes)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("homenc: trailing bytes after partial decryption")
	}
	p.Index = int(idx)
	p.V = v
	return nil
}

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

// UnmarshalVector decodes a MarshalVector payload with the default
// bounds (DefaultMaxVectorLen elements of DefaultMaxIntBytes each).
func UnmarshalVector(data []byte) ([]Ciphertext, error) {
	return UnmarshalVectorBound(data, DefaultMaxVectorLen, DefaultMaxIntBytes)
}

// UnmarshalVectorBound decodes a MarshalVector payload rejecting more
// than maxLen elements or any magnitude above maxBytes — both checked
// before allocating, so a hostile count or length prefix cannot reserve
// memory beyond what the frame itself carries.
func UnmarshalVectorBound(data []byte, maxLen, maxBytes int) ([]Ciphertext, error) {
	v, rest, err := ScanVectorBound(data, maxLen, maxBytes)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("homenc: trailing bytes after vector")
	}
	return v.Values(), nil
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

// MarshalInt encodes an arbitrary big integer in the package's
// canonical sign/length/magnitude format.
func MarshalInt(v *big.Int) []byte {
	return AppendInt(make([]byte, 0, IntWireSize(v)), v)
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

// UnmarshalIntBound decodes one MarshalInt integer from the front of
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

// decodeInts materializes the n integers of an already-scanned encoding
// (each preceded by skip bytes: 0 for ciphertexts, 4 for a partial's
// share index) into one Slab, so a vector costs two allocations instead
// of two per element.
func decodeInts(b []byte, n, skip int) []big.Int {
	words := 0
	for p, i := b, 0; i < n; i++ {
		m := int(binary.BigEndian.Uint32(p[skip+1:]))
		words += (m + wordBytes - 1) / wordBytes
		p = p[skip+intHeader+m:]
	}
	slab := NewSlab(n, words)
	for i := 0; i < n; i++ {
		m := int(binary.BigEndian.Uint32(b[skip+1:]))
		mag := b[skip+intHeader : skip+intHeader+m]
		w := (m + wordBytes - 1) / wordBytes
		z := slab.Carve(i, w)
		abs := z.Bits()[:w]
		// Little-endian words from big-endian bytes.
		for k := range abs {
			end := m - k*wordBytes
			var x big.Word
			for _, c := range mag[max(0, end-wordBytes):end] {
				x = x<<8 | big.Word(c)
			}
			abs[k] = x
		}
		z.SetBits(abs)
		if b[skip] == wireNegative {
			z.Neg(z)
		}
		b = b[skip+intHeader+m:]
	}
	return slab.ints
}

// wireStats counts how often the wire images pay off; see WireStats.
var wireStats struct {
	sends, builds, scanned, materialized atomic.Int64
}

// WireStats reports, process-wide, the property the wire images depend
// on — a vector is sent or received more often than it changes.
// Sends counts vectors appended to a frame or journal record, Builds
// how many of those had to be encoded first (the rest were served from
// a cached image); Scanned counts non-empty vectors scanned off
// received frames, Materialized how many scanned or adopted vectors
// were ever turned into big.Int values.
type WireStats struct {
	Sends, Builds, Scanned, Materialized int64
}

// ReadWireStats snapshots the process-wide wire-image counters.
func ReadWireStats() WireStats {
	return WireStats{
		Sends:        wireStats.sends.Load(),
		Builds:       wireStats.builds.Load(),
		Scanned:      wireStats.scanned.Load(),
		Materialized: wireStats.materialized.Load(),
	}
}

// emptyImage is the encoding of a zero-length vector of either kind.
var emptyImage = make([]byte, 4)

// Vector is an immutable ciphertext vector together with its cached
// wire image (the MarshalVector encoding). It holds its values, its
// image, or both: a vector built locally starts with values and is
// encoded at its first send; a vector adopted from a peer starts with
// the image it arrived in and is materialized only if the crypto needs
// its values. A nil *Vector is the empty vector. The missing form is
// built lazily, by whichever call needs it first, so a Vector that one
// goroutine owns needs no locking; a Vector that several goroutines are
// about to read must be Sealed — both forms built — before it is
// published to them, after which every method is a pure read.
type Vector struct {
	n   int
	cts []Ciphertext
	img []byte
}

// NewVector wraps a ciphertext vector. The caller must not modify cts
// afterwards: the cached image would go stale.
func NewVector(cts []Ciphertext) *Vector { return &Vector{n: len(cts), cts: cts} }

// Len returns the element count.
func (v *Vector) Len() int {
	if v == nil {
		return 0
	}
	return v.n
}

// Values returns the ciphertexts, materializing them from the image on
// first use. The slice is shared: callers must not modify it.
func (v *Vector) Values() []Ciphertext {
	if v == nil {
		return nil
	}
	if v.cts == nil && v.n > 0 {
		v.cts = decodeVector(v.img[4:], v.n)
	}
	return v.cts
}

// Seal builds whichever of the two forms is still missing, so that no
// later call writes to the vector: the step that makes it safe to share
// between goroutines. It costs nothing extra over the vector's life —
// the image would be built at its first send, the values at its first
// use.
func (v *Vector) Seal() {
	if v == nil {
		return
	}
	v.Values()
	v.buildImage()
}

// buildImage encodes the vector unless its image is already cached.
func (v *Vector) buildImage() {
	if v.img == nil {
		wireStats.builds.Add(1)
		v.img = appendVector(make([]byte, 0, vectorWireSize(v.cts)), v.cts)
	}
}

// WireSize is the length of the vector's encoding.
func (v *Vector) WireSize() int {
	switch {
	case v == nil:
		return len(emptyImage)
	case v.img != nil:
		return len(v.img)
	}
	return vectorWireSize(v.cts)
}

// AppendTo appends the vector's encoding to dst, encoding it first if
// no image is cached yet.
func (v *Vector) AppendTo(dst []byte) []byte {
	if v == nil {
		return append(dst, emptyImage...)
	}
	wireStats.sends.Add(1)
	v.buildImage()
	return append(dst, v.img...)
}

func decodeVector(b []byte, n int) []Ciphertext {
	wireStats.materialized.Add(1)
	ints := decodeInts(b, n, 0)
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
	if n > 0 {
		wireStats.scanned.Add(1)
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
// other than this implementation produced it) is materialized instead,
// so whatever this side sends on is canonical again.
func (v VectorView) Copy() *Vector {
	if v.n == 0 {
		return nil
	}
	if !v.canonical {
		return NewVector(v.Values())
	}
	return &Vector{n: v.n, img: bytes.Clone(v.b)}
}

// Partials is the Vector of partial decryptions: one key-share applied
// to every element of a ciphertext vector, with its cached wire image
// (a count, then share index and integer per element). The same
// ownership rules apply, Seal included.
type Partials struct {
	n   int
	ps  []PartialDecryption
	img []byte
}

// NewPartials wraps a partial-decryption vector. The caller must not
// modify ps afterwards.
func NewPartials(ps []PartialDecryption) *Partials { return &Partials{n: len(ps), ps: ps} }

// Len returns the element count.
func (p *Partials) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// Values returns the partial decryptions, materializing them from the
// image on first use. The slice is shared: callers must not modify it.
func (p *Partials) Values() []PartialDecryption {
	if p == nil {
		return nil
	}
	if p.ps == nil && p.n > 0 {
		p.ps = decodePartials(p.img[4:], p.n)
	}
	return p.ps
}

func partialsWireSize(ps []PartialDecryption) int {
	size := 4
	for _, p := range ps {
		size += 4 + IntWireSize(p.V)
	}
	return size
}

// Seal builds whichever form is still missing; see Vector.Seal.
func (p *Partials) Seal() {
	if p == nil {
		return
	}
	p.Values()
	p.buildImage()
}

// buildImage encodes the vector unless its image is already cached.
func (p *Partials) buildImage() {
	if p.img == nil {
		wireStats.builds.Add(1)
		img := binary.BigEndian.AppendUint32(make([]byte, 0, partialsWireSize(p.ps)), uint32(len(p.ps)))
		for _, e := range p.ps {
			img = AppendInt(binary.BigEndian.AppendUint32(img, uint32(e.Index)), e.V)
		}
		p.img = img
	}
}

// WireSize is the length of the vector's encoding.
func (p *Partials) WireSize() int {
	switch {
	case p == nil:
		return len(emptyImage)
	case p.img != nil:
		return len(p.img)
	}
	return partialsWireSize(p.ps)
}

// AppendTo appends the vector's encoding to dst, encoding it first if
// no image is cached yet.
func (p *Partials) AppendTo(dst []byte) []byte {
	if p == nil {
		return append(dst, emptyImage...)
	}
	wireStats.sends.Add(1)
	p.buildImage()
	return append(dst, p.img...)
}

func decodePartials(b []byte, n int) []PartialDecryption {
	wireStats.materialized.Add(1)
	ints := decodeInts(b, n, 4)
	ps := make([]PartialDecryption, n)
	for i := range ps {
		ps[i] = PartialDecryption{Index: int(binary.BigEndian.Uint32(b)), V: &ints[i]}
		b = b[4+intHeader+int(binary.BigEndian.Uint32(b[5:])):]
	}
	return ps
}

// PartialsView is a scanned, not yet materialized partial-decryption
// vector; like VectorView it aliases the scanned buffer.
type PartialsView struct {
	n         int
	share     int
	uniform   bool
	canonical bool
	b         []byte
}

// ScanPartialsBound is ScanVectorBound for a partial-decryption vector.
func ScanPartialsBound(data []byte, maxLen, maxBytes int) (PartialsView, []byte, error) {
	if len(data) < 4 {
		return PartialsView{}, nil, errors.New("homenc: short partials vector")
	}
	n := binary.BigEndian.Uint32(data)
	if maxLen < 0 {
		maxLen = 0
	}
	if uint64(n) > uint64(maxLen) {
		return PartialsView{}, nil, fmt.Errorf("homenc: partials vector length %d exceeds bound %d", n, maxLen)
	}
	v := PartialsView{n: int(n), uniform: n > 0, canonical: true}
	off := 4
	for i := uint32(0); i < n; i++ {
		if len(data)-off < 4 {
			return PartialsView{}, nil, errors.New("homenc: short partial decryption")
		}
		share := int(binary.BigEndian.Uint32(data[off:]))
		if i == 0 {
			v.share = share
		}
		v.uniform = v.uniform && share == v.share
		size, canon, err := ScanIntBound(data[off+4:], maxBytes)
		if err != nil {
			return PartialsView{}, nil, err
		}
		v.canonical = v.canonical && canon
		off += 4 + size
	}
	if n > 0 {
		wireStats.scanned.Add(1)
	}
	v.b = data[:off]
	return v, data[off:], nil
}

// Len returns the element count.
func (v PartialsView) Len() int { return v.n }

// Share returns the key-share index every element claims, and false if
// the vector is empty or its elements disagree.
func (v PartialsView) Share() (int, bool) { return v.share, v.uniform }

// Values materializes the partial decryptions (independent of the
// scanned buffer).
func (v PartialsView) Values() []PartialDecryption {
	if v.n == 0 {
		return nil
	}
	return decodePartials(v.b[4:], v.n)
}

// Copy detaches the view into an owned Partials that keeps the image
// it arrived with (see VectorView.Copy for the non-canonical case).
func (v PartialsView) Copy() *Partials {
	if v.n == 0 {
		return nil
	}
	if !v.canonical {
		return NewPartials(v.Values())
	}
	return &Partials{n: v.n, img: bytes.Clone(v.b)}
}
