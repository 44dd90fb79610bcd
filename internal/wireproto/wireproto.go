// Package wireproto is Chiaroscuro's binary wire protocol: the framing
// and message encodings that carry every protocol interaction of the
// Diptych between real peers — Newscast view exchanges, the encrypted
// sum push-pull (one EESum state as homenc wire encodings), the
// noise-correction dissemination, epidemic partial-decryption shares,
// and membership (hello/roster/leave).
//
// A frame is
//
//	uint32 BE  length of everything after this field
//	byte       protocol version (Version)
//	byte       message kind (Kind*)
//	uint64 BE  population epoch — identifies the run a peer belongs to;
//	           frames from another epoch are rejected at the door
//	uint32 BE  target population index, 0xFFFFFFFF for none — lets a
//	           multiplexed listener route the frame to a co-located
//	           virtual node without decoding the payload
//	payload    kind-specific binary encoding
//
// Every frame has this one layout, so a frame's size is its payload's
// plus a constant (FrameWireSize).
//
// Every decoder takes explicit Limits so a malicious frame cannot force
// allocations beyond what its own bytes justify; integers and
// ciphertexts reuse homenc's canonical bounded encoding.
package wireproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version byte. A frame of any other version —
// the two earlier layouts included — is refused as malformed: there is
// no negotiation, populations are provisioned together. Version 6 ended
// every decryption leg with its sender's release mark: a released
// participant's legs carry its decoded release instead of share
// indices and partial decryptions. Version 7 sends one EESum state on a
// sum leg, the means with the noise-shares folded in, where the earlier
// versions sent the means and the noise states apart.
const Version = 7

// Message kinds.
const (
	// Membership and connectivity.
	KindHello    byte = 0x01 // joiner -> bootstrap: index + listen address
	KindHelloAck byte = 0x02 // bootstrap -> joiner: current roster view
	KindView     byte = 0x03 // Newscast view push (either direction)
	KindLeave    byte = 0x04 // graceful departure notice
	KindReject   byte = 0x05 // handshake refusal: typed reason (config mismatch)
	// Crash recovery: a peer relaunched from its journal re-announces
	// itself with its protocol position instead of joining as new, so
	// receivers reconcile the roster and reinstate it from suspicion
	// rather than treating it as a fresh (or evicted) participant.
	KindResume    byte = 0x06 // restarted peer -> anyone: identity + journal position
	KindResumeAck byte = 0x07 // receiver -> restarted peer: current roster view

	// Encrypted sum phase (one EESum state, noise folded in, + counter).
	KindSumReq  byte = 0x10 // initiator state push
	KindSumResp byte = 0x11 // responder pre-merge state
	KindSumFin  byte = 0x12 // commit: responder applies its half

	// Noise-correction min-identifier dissemination.
	KindDissReq  byte = 0x20
	KindDissResp byte = 0x21
	KindDissFin  byte = 0x22

	// Epidemic threshold decryption.
	KindDecReq  byte = 0x30 // initiator decryption state
	KindDecResp byte = 0x31 // responder pre-merge state + its share's partials for the initiator
	KindDecFin  byte = 0x32 // initiator's share partials for the responder; commit
)

// maxFrameHard is the absolute frame-size ceiling regardless of Limits:
// no Chiaroscuro message legitimately approaches it.
const maxFrameHard = 1 << 28

// ErrMalformed marks frames that decoded wrongly at the framing layer —
// over-limit lengths, impossible headers, version mismatches — as
// opposed to plain I/O failures (a peer dying mid-frame). Receivers use
// it to count hostile input separately from network weather.
var ErrMalformed = errors.New("wireproto: malformed frame")

// headerBytes is the fixed frame overhead after the length prefix:
// version, kind, epoch and target.
const headerBytes = 1 + 1 + 8 + 4

// noTarget is the target field of an untargeted frame.
const noTarget = 0xFFFFFFFF

// Frame is one decoded wire frame. Target is the routed population
// index, or -1 for an untargeted frame.
// Payload lives in a pooled buffer: whoever holds the frame may call
// Release once nothing aliases Payload anymore (a frame that is never
// released is simply garbage-collected).
type Frame struct {
	Kind    byte
	Epoch   uint64
	Target  int
	Payload []byte

	body []byte // the pooled buffer Payload points into
}

// Release returns the frame's buffer to the pool. The caller must own
// the frame exclusively and must have copied out everything it keeps:
// Payload, and every view scanned from it, is dead afterwards.
func (f *Frame) Release() {
	PutBuf(f.body)
	f.body, f.Payload = nil, nil
}

// FrameWireSize is the on-the-wire byte count of a frame with the given
// payload length — the unit both ends use for byte accounting, so
// Figure 5(b) wire numbers stay honest whatever transport the frame
// travels on.
func FrameWireSize(payloadLen int) int { return 4 + headerBytes + payloadLen }

// Message is a payload that knows its exact encoded size and appends
// its encoding to a buffer — what lets WriteMessage build a frame in
// place instead of framing a separately marshalled payload.
type Message interface {
	Size() int
	AppendTo(dst []byte) []byte
}

// Marshal encodes a message into a fresh, exactly sized buffer.
func Marshal(m Message) []byte { return m.AppendTo(make([]byte, 0, m.Size())) }

// rawPayload is an already-encoded payload as a Message.
type rawPayload []byte

func (p rawPayload) Size() int                  { return len(p) }
func (p rawPayload) AppendTo(dst []byte) []byte { return append(dst, p...) }

// WriteFrameTarget writes one frame addressed to a population index; a
// negative target writes an untargeted frame, so callers can thread the
// destination through unconditionally.
func WriteFrameTarget(w io.Writer, kind byte, epoch uint64, target int, payload []byte) error {
	_, err := WriteMessage(w, kind, epoch, target, rawPayload(payload))
	return err
}

// WriteMessage frames m (target as for WriteFrameTarget) in a single
// pooled buffer — the frame header is reserved ahead of the payload,
// which the message appends in place — and emits it with one Write. It
// returns the frame's wire size. It is generic so that a message passed
// by value is not boxed onto the heap.
func WriteMessage[M Message](w io.Writer, kind byte, epoch uint64, target int, m M) (int, error) {
	size := m.Size()
	if size > maxFrameHard-headerBytes {
		return 0, fmt.Errorf("wireproto: payload of %d bytes exceeds the frame ceiling", size)
	}
	buf := GetBuf(FrameWireSize(size))[:4+headerBytes]
	defer PutBuf(buf)
	binary.BigEndian.PutUint32(buf, uint32(headerBytes+size))
	buf[4] = Version
	buf[5] = kind
	binary.BigEndian.PutUint64(buf[6:], epoch)
	t := uint32(noTarget)
	if target >= 0 {
		t = uint32(target)
	}
	binary.BigEndian.PutUint32(buf[14:], t)
	buf = m.AppendTo(buf)
	if len(buf) != FrameWireSize(size) {
		return 0, fmt.Errorf("wireproto: message encoded %d bytes, declared %d", len(buf)-4-headerBytes, size)
	}
	_, err := w.Write(buf)
	return len(buf), err
}

// ReadFrame reads one frame, rejecting frames whose header and payload
// exceed maxFrame bytes (a value <= 0 uses the hard ceiling) before
// allocating the payload.
func ReadFrame(r io.Reader, maxFrame int) (Frame, error) {
	if maxFrame <= 0 || maxFrame > maxFrameHard {
		maxFrame = maxFrameHard
	}
	// The length is read into a pooled buffer, which the frame keeps when
	// it fits: a buffer on the stack would escape through r.Read.
	body := GetBuf(4)
	if _, err := io.ReadFull(r, body); err != nil {
		PutBuf(body)
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(body)
	if n < headerBytes {
		PutBuf(body)
		return Frame{}, fmt.Errorf("%w: frame shorter than its header", ErrMalformed)
	}
	if uint64(n) > uint64(maxFrame) {
		PutBuf(body)
		return Frame{}, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrMalformed, n, maxFrame)
	}
	if int(n) <= cap(body) {
		body = body[:n]
	} else {
		PutBuf(body)
		body = GetBuf(int(n))
	}
	if _, err := io.ReadFull(r, body); err != nil {
		PutBuf(body)
		return Frame{}, err
	}
	if body[0] != Version {
		PutBuf(body)
		return Frame{}, fmt.Errorf("%w: version %d, want %d", ErrMalformed, body[0], Version)
	}
	f := Frame{
		Kind:    body[1],
		Epoch:   binary.BigEndian.Uint64(body[2:10]),
		Target:  -1,
		Payload: body[headerBytes:],
		body:    body,
	}
	if t := binary.BigEndian.Uint32(body[10:14]); t != noTarget {
		f.Target = int(t)
	}
	return f, nil
}

// Limits bounds every allocation a decoder performs on behalf of a
// remote peer. The zero value is unusable; build one from the scheme
// and protocol dimensions with NewLimits.
type Limits struct {
	MaxCTBytes  int // ciphertext / weight / partial magnitude bound
	MaxDim      int // protocol vector length bound (k·(n+1) slots)
	MaxParts    int // gathered partial-decryption share bound (τ)
	MaxPeers    int // roster / view entries bound
	MaxAddrLen  int // peer address string bound
	MaxFrameLen int // whole-frame bound derived from the above
}

// NewLimits derives decoder limits from the deployment's actual sizes:
// ctBytes is the scheme's ciphertext wire size, dim the protocol vector
// length, parts the decryption threshold, peers the population bound.
func NewLimits(ctBytes, dim, parts, peers int) Limits {
	l := Limits{
		// Weights grow by one bit per exchange epoch on top of the
		// plaintext size; doubling the ciphertext bound leaves orders of
		// magnitude of slack while still refusing absurd frames.
		MaxCTBytes: 2*ctBytes + 64,
		MaxDim:     dim,
		MaxParts:   parts,
		MaxPeers:   peers,
		MaxAddrLen: 256,
	}
	// A decryption response is the largest exchange leg: up to parts×dim
	// gathered partials plus dim fresh partials, each integer costing at
	// most MaxCTBytes+5 bytes; the bound leaves a vector of slack.
	perInt := l.MaxCTBytes + 16
	l.MaxFrameLen = headerBytes + 64 + (parts+2)*(dim+1)*perInt + peers*(l.MaxAddrLen+16)
	if l.MaxFrameLen > maxFrameHard {
		l.MaxFrameLen = maxFrameHard
	}
	return l
}

// --- primitive cursors ---

// Enc is an append-only payload encoder. The wire's messages are
// written with it, and so are the records of a node's journal.
type Enc struct{ B []byte }

func (e *Enc) U8(v byte)     { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16)  { e.B = binary.BigEndian.AppendUint16(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.BigEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.BigEndian.AppendUint64(e.B, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a u16-length-prefixed string.
func (e *Enc) Str(s string) { e.U16(uint16(len(s))); e.B = append(e.B, s...) }

// Blob appends a u32-length-prefixed byte string.
func (e *Enc) Blob(p []byte) { e.U32(uint32(len(p))); e.B = append(e.B, p...) }

// Dec is a sticky-error payload reader: B is what is left to read, and
// after the first failure every read returns a zero value.
type Dec struct {
	B   []byte
	err error
}

// Fail records msg as the decode failure unless one is recorded already.
func (d *Dec) Fail(msg string) {
	if d.err == nil {
		d.err = errors.New("wireproto: " + msg)
	}
}

// Err returns the first failure, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) U8() byte {
	if p := d.next(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *Dec) U16() uint16 {
	if p := d.next(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if p := d.next(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if p := d.next(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a string Enc.Str wrote, of at most maxLen bytes.
func (d *Dec) Str(maxLen int) string {
	return string(d.take(int(d.U16()), maxLen, "string"))
}

// Blob reads a byte string Enc.Blob wrote, of at most maxLen bytes. The
// result aliases the payload.
func (d *Dec) Blob(maxLen int) []byte {
	return d.take(int(d.U32()), maxLen, "byte string")
}

// take consumes n bytes, refusing more than maxLen.
func (d *Dec) take(n, maxLen int, what string) []byte {
	if n > maxLen {
		d.Fail(what + " exceeds bound")
	}
	return d.next(n)
}

// next consumes n bytes; nil once the reader has failed.
func (d *Dec) next(n int) []byte {
	if d.err != nil || len(d.B) < n {
		d.Fail("short payload")
		return nil
	}
	p := d.B[:n]
	d.B = d.B[n:]
	return p
}

// Done returns the first failure, or an error if bytes are left over.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.B) != 0 {
		return errors.New("wireproto: trailing bytes")
	}
	return nil
}
