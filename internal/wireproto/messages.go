package wireproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
)

// ExchangeHdr tags every exchange-phase message with its scheduled
// slot, which is how peers running the deterministic schedule pair up
// requests with the exchange they are waiting for: iteration, gossip
// cycle within the phase, index within the cycle's schedule, and the
// population indices of both sides.
type ExchangeHdr struct {
	Iter  uint32
	Cycle uint32
	Seq   uint32
	From  uint32
	To    uint32
	Flags byte
}

// FlagAbort on a fin leg tells the responder its half of the exchange
// is lost — the initiator applied its update, the responder must not.
// Modeled mid-exchange churn sends it explicitly; a genuine crash
// produces the same half-completed outcome via the fin timeout.
const FlagAbort byte = 0x01

// hdrSize is the encoded size of an ExchangeHdr.
const hdrSize = 5*4 + 1

func (h ExchangeHdr) appendTo(dst []byte) []byte {
	e := Enc{B: dst}
	e.U32(h.Iter)
	e.U32(h.Cycle)
	e.U32(h.Seq)
	e.U32(h.From)
	e.U32(h.To)
	e.U8(h.Flags)
	return e.B
}

func decodeHdr(d *Dec) ExchangeHdr {
	return ExchangeHdr{
		Iter:  d.U32(),
		Cycle: d.U32(),
		Seq:   d.U32(),
		From:  d.U32(),
		To:    d.U32(),
		Flags: d.U8(),
	}
}

// PeekHdr decodes just the leading ExchangeHdr of an exchange payload,
// letting a listener route a request to its scheduled slot without
// paying for the full (possibly large) message decode.
func PeekHdr(data []byte) (ExchangeHdr, error) {
	d := Dec{B: data}
	h := decodeHdr(&d)
	if d.err != nil {
		return ExchangeHdr{}, d.err
	}
	return h, nil
}

// --- membership ---

// Hello is a joiner's first message to any known peer: its population
// index, listen address, the population size it was provisioned for,
// and a digest of its shared protocol parameters. A receiver whose own
// digest differs answers KindReject instead of a roster — the two
// daemons were provisioned inconsistently (different -k, -pack-slots,
// -frac-bits, …) and would diverge silently mid-run otherwise. A zero
// digest is never checked (pre-digest peers).
type Hello struct {
	Index  uint32
	Addr   string
	N      uint32
	Digest uint64
}

// MarshalHello encodes a Hello payload.
func MarshalHello(h Hello) []byte {
	var e Enc
	e.U32(h.Index)
	e.Str(h.Addr)
	e.U32(h.N)
	e.U64(h.Digest)
	return e.B
}

// UnmarshalHello decodes a Hello payload.
func UnmarshalHello(data []byte, lim Limits) (Hello, error) {
	d := Dec{B: data}
	h := Hello{Index: d.U32()}
	h.Addr = d.Str(lim.MaxAddrLen)
	h.N = d.U32()
	h.Digest = d.U64()
	return h, d.Done()
}

// Resume is a restarted peer's re-announcement: the Hello identity
// fields plus the protocol position its journal replayed to (the last
// committed slot; zero position for a peer that crashed before any
// commit). Receivers validate it exactly like a Hello — same digest
// refusal — then reinstate the peer (suspicion strikes and eviction
// overlays cleared, address relearned) instead of treating it as new.
type Resume struct {
	Index  uint32
	Addr   string
	N      uint32
	Digest uint64
	Iter   uint32
	Phase  uint32
	Cycle  uint32
	Seq    uint32
}

// MarshalResume encodes a Resume payload (KindResume).
func MarshalResume(r Resume) []byte {
	var e Enc
	e.U32(r.Index)
	e.Str(r.Addr)
	e.U32(r.N)
	e.U64(r.Digest)
	e.U32(r.Iter)
	e.U32(r.Phase)
	e.U32(r.Cycle)
	e.U32(r.Seq)
	return e.B
}

// UnmarshalResume decodes a Resume payload.
func UnmarshalResume(data []byte, lim Limits) (Resume, error) {
	d := Dec{B: data}
	r := Resume{Index: d.U32()}
	r.Addr = d.Str(lim.MaxAddrLen)
	r.N = d.U32()
	r.Digest = d.U64()
	r.Iter = d.U32()
	r.Phase = d.U32()
	r.Cycle = d.U32()
	r.Seq = d.U32()
	return r, d.Done()
}

// Reject is a handshake refusal with a human-readable reason, sent in
// place of a HelloAck when the peers' provisioning disagrees.
type Reject struct {
	Reason string
}

// maxRejectReason bounds the reason string independently of Limits: the
// refusal travels before the peers agree on anything.
const maxRejectReason = 256

// MarshalReject encodes a Reject payload, truncating oversize reasons.
func MarshalReject(r Reject) []byte {
	if len(r.Reason) > maxRejectReason {
		r.Reason = r.Reason[:maxRejectReason]
	}
	var e Enc
	e.Str(r.Reason)
	return e.B
}

// UnmarshalReject decodes a Reject payload.
func UnmarshalReject(data []byte) (Reject, error) {
	d := Dec{B: data}
	r := Reject{Reason: d.Str(maxRejectReason)}
	return r, d.Done()
}

// ViewItem is one serializable Newscast news item: who (population
// index and dialable address) and how fresh. It is the wire form of a
// newscast.Item extended with the address a real deployment needs.
type ViewItem struct {
	Index     uint32
	Addr      string
	Heartbeat int64
}

// MarshalView encodes a view exchange (or HelloAck roster) payload.
func MarshalView(items []ViewItem) []byte {
	var e Enc
	e.U32(uint32(len(items)))
	for _, it := range items {
		e.U32(it.Index)
		e.Str(it.Addr)
		e.U64(uint64(it.Heartbeat))
	}
	return e.B
}

// UnmarshalView decodes a view payload, bounded by lim.MaxPeers.
func UnmarshalView(data []byte, lim Limits) ([]ViewItem, error) {
	d := Dec{B: data}
	n := int(d.U32())
	if d.err == nil && n > lim.MaxPeers {
		return nil, fmt.Errorf("wireproto: view of %d items exceeds bound %d", n, lim.MaxPeers)
	}
	items := make([]ViewItem, 0, min(n, len(data)/7+1))
	for i := 0; i < n; i++ {
		it := ViewItem{Index: d.U32()}
		it.Addr = d.Str(lim.MaxAddrLen)
		it.Heartbeat = int64(d.U64())
		if d.err != nil {
			break
		}
		items = append(items, it)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return items, nil
}

// Leave is a graceful departure notice.
type Leave struct {
	Index uint32
}

// MarshalLeave encodes a Leave payload.
func MarshalLeave(l Leave) []byte {
	var e Enc
	e.U32(l.Index)
	return e.B
}

// UnmarshalLeave decodes a Leave payload.
func UnmarshalLeave(data []byte) (Leave, error) {
	d := Dec{B: data}
	l := Leave{Index: d.U32()}
	return l, d.Done()
}

// --- encrypted sum phase ---

// SumSide is one EESum state in wire-ready form. A participant's state
// at rest is already one: its vector is the image the next send appends.
type SumSide = eesum.SumSide

func sideSize(s SumSide) int { return s.CTs.WireSize() + homenc.IntWireSize(s.Omega) + 4 }

func appendSide(dst []byte, s SumSide) []byte {
	dst = homenc.AppendInt(s.CTs.AppendTo(dst), s.Omega)
	return binary.BigEndian.AppendUint32(dst, uint32(s.Epoch))
}

// SumOut is one side's full sum-phase state (KindSumReq and KindSumResp,
// and a journal checkpoint's sum segment): its EESum state — the means
// with the noise-shares folded in — and the cleartext participant
// counter piggybacking on the same exchange.
type SumOut struct {
	Hdr      ExchangeHdr
	Means    SumSide
	CtrSigma float64
	CtrOmega float64
}

// Size implements Message.
func (m SumOut) Size() int { return hdrSize + sideSize(m.Means) + 16 }

// AppendTo implements Message.
func (m SumOut) AppendTo(dst []byte) []byte {
	e := Enc{B: appendSide(m.Hdr.appendTo(dst), m.Means)}
	e.F64(m.CtrSigma)
	e.F64(m.CtrOmega)
	return e.B
}

// SumSideView is one scanned, not yet materialized EESum state; it
// aliases the scanned payload.
type SumSideView struct {
	CTs   homenc.VectorView
	omega []byte
	Epoch int
}

// State materializes the EESum state (independent of the payload).
func (v SumSideView) State() eesum.SumState {
	return eesum.SumState{CTs: v.CTs.Values(), Omega: intOf(v.omega), Epoch: v.Epoch}
}

// Copy detaches the view into an owned, wire-ready state that keeps the
// image it arrived with.
func (v SumSideView) Copy() SumSide {
	return SumSide{CTs: v.CTs.Copy(), Omega: intOf(v.omega), Epoch: v.Epoch}
}

// Operand returns the state as the update rule reads it: the ciphertexts
// in place, in the payload (only the weight is decoded).
func (v SumSideView) Operand() eesum.SumOperand {
	return eesum.SumOperand{CTs: v.CTs.Operand(), Omega: intOf(v.omega), Epoch: v.Epoch}
}

func scanSumSide(d *Dec, lim Limits) SumSideView {
	v := SumSideView{CTs: d.vector(lim.MaxDim, lim.MaxCTBytes)}
	v.omega = d.intImage(lim.MaxCTBytes)
	v.Epoch = int(d.U32())
	return v
}

// SumView is the structural scan of a SumOut payload: every bound of
// Limits enforced, no big.Int built. It aliases the payload.
type SumView struct {
	Hdr      ExchangeHdr
	Means    SumSideView
	CtrSigma float64
	CtrOmega float64
}

// Peer returns the scanned side as the other side of a sum exchange,
// read in place: valid only as long as the payload is.
func (v SumView) Peer() eesum.SumPeer {
	return eesum.SumPeer{Means: v.Means.Operand(), CtrS: v.CtrSigma, CtrW: v.CtrOmega}
}

// ScanSum scans a SumOut payload.
func ScanSum(data []byte, lim Limits) (SumView, error) {
	d := Dec{B: data}
	v := SumView{Hdr: decodeHdr(&d)}
	v.Means = scanSumSide(&d, lim)
	v.CtrSigma = d.F64()
	v.CtrOmega = d.F64()
	return v, d.Done()
}

// Fin is the bare commit leg closing a sum exchange (KindSumFin): the
// responder applies its half only when it arrives, which is what
// reproduces the half-completed exchange of Section 6.1.5 when the
// initiator (or the link) dies in between. It is read with PeekHdr.
type Fin struct {
	Hdr ExchangeHdr
}

// Size implements Message.
func (f Fin) Size() int { return hdrSize }

// AppendTo implements Message.
func (f Fin) AppendTo(dst []byte) []byte { return f.Hdr.appendTo(dst) }

// --- election of the vector to decrypt (the correction dissemination) ---

// DissMsg is the sending form of a dissemination leg (KindDissReq,
// KindDissResp, KindDissFin): the identifier of the vector the sender
// holds elected (min identifier wins, Section 4.2.2) and, only on a leg
// toward a side holding a larger identifier, the vector itself — the
// perturbed means as an image — and its weight. The request carries the
// identifier alone; the response carries the vector when the responder's
// identifier is the smaller, the fin when the initiator's was. CTs nil
// encodes as the empty vector and Omega nil as zero: no vector.
type DissMsg struct {
	Hdr   ExchangeHdr
	ID    uint64
	CTs   *homenc.Vector
	Omega *big.Int
}

// Size implements Message.
func (m DissMsg) Size() int {
	return hdrSize + 8 + m.CTs.WireSize() + homenc.IntWireSize(orZero(m.Omega))
}

// AppendTo implements Message.
func (m DissMsg) AppendTo(dst []byte) []byte {
	e := Enc{B: m.Hdr.appendTo(dst)}
	e.U64(m.ID)
	return homenc.AppendInt(m.CTs.AppendTo(e.B), orZero(m.Omega))
}

// zero stands in for an absent weight.
var zero = new(big.Int)

func orZero(v *big.Int) *big.Int {
	if v == nil {
		return zero
	}
	return v
}

// DissView is the structural scan of a DissMsg payload: every bound of
// Limits enforced, no big.Int built. It aliases the payload; a receiver
// adopting the vector detaches it with Copy.
type DissView struct {
	Hdr   ExchangeHdr
	ID    uint64
	CTs   homenc.VectorView
	omega []byte
}

// Carries reports whether the leg carries a vector.
func (v DissView) Carries() bool { return v.CTs.Len() > 0 }

// Omega materializes the vector's weight (zero on a leg without one).
func (v DissView) Omega() *big.Int { return intOf(v.omega) }

// ScanDiss scans a DissMsg payload.
func ScanDiss(data []byte, lim Limits) (DissView, error) {
	d := Dec{B: data}
	v := DissView{Hdr: decodeHdr(&d), ID: d.U64()}
	v.CTs = d.vector(lim.MaxDim, lim.MaxCTBytes)
	v.omega = d.intImage(lim.MaxCTBytes)
	return v, d.Done()
}

// --- epidemic decryption ---

// DecMsg is the sending form of a decryption leg (KindDecReq,
// KindDecResp, KindDecFin) and of a journal checkpoint's decryption
// state: the identifier of the vector the sender decrypts, entries in
// ascending share index — each a share index with the partial
// decryptions under it (a vector of group elements) or, when they do
// not travel, the empty vector — Fresh, the sender's own key-share when
// one is due to the receiver (its index is the sender's), and the
// release mark. Shares are the indices the message names, and Parts the
// entries among them whose partial decryptions it carries: a request
// names the sender's set and carries none of it; a response names the
// set and carries what the initiator lacks and will keep; a fin names
// and carries just what the responder lacks and will keep; a checkpoint
// carries its whole set. A released sender's legs name no entries and
// carry no key-share: its request is only marked Released, and its
// response and fin carry the Release too. A checkpoint records the set,
// the own key-share and the release together. The ciphertexts
// themselves never travel here: both sides elected them in the
// dissemination.
type DecMsg struct {
	Hdr      ExchangeHdr
	ID       uint64
	Shares   []eesum.Part // ascending; only the indices are read
	Parts    []eesum.Part // a subsequence of Shares
	Fresh    *homenc.Vector
	Released bool      // the sender is released
	Release  []float64 // its release, when the message carries it
}

// Size implements Message.
func (m DecMsg) Size() int {
	size := hdrSize + 8 + 2 + m.Fresh.WireSize() + 1
	if m.Released {
		size += 2 + 8*len(m.Release)
	}
	parts := m.Parts
	for _, e := range m.Shares {
		var v *homenc.Vector
		v, parts = carried(e.Idx, parts)
		size += 4 + v.WireSize()
	}
	return size
}

// AppendTo implements Message.
func (m DecMsg) AppendTo(dst []byte) []byte {
	e := Enc{B: m.Hdr.appendTo(dst)}
	e.U64(m.ID)
	e.U16(uint16(len(m.Shares)))
	parts := m.Parts
	for _, s := range m.Shares {
		var v *homenc.Vector
		v, parts = carried(s.Idx, parts)
		e.U32(uint32(s.Idx))
		e.B = v.AppendTo(e.B)
	}
	e.B = m.Fresh.AppendTo(e.B)
	if !m.Released {
		e.U8(0)
		return e.B
	}
	e.U8(1)
	e.U16(uint16(len(m.Release)))
	for _, x := range m.Release {
		e.F64(x)
	}
	return e.B
}

// carried returns the partial decryptions under share index idx when
// they head parts (nil: the index travels alone) and the rest of parts.
func carried(idx int, parts []eesum.Part) (*homenc.Vector, []eesum.Part) {
	if len(parts) > 0 && parts[0].Idx == idx {
		return parts[0].V, parts[1:]
	}
	return nil, parts
}

// DecView is the structural scan of a DecMsg payload: every bound of
// Limits enforced — exactly the frames an eager decode would accept —
// with no big.Int built and nothing allocated, the entries in strictly
// ascending share index and every released value finite. It aliases the
// payload, and is walked with the cursor of eesum.DecPeer — it is the
// peer of an eesum.Participant's decryption exchange — over the entries
// the scan vetted; what a receiver keeps (a part it takes, an accepted
// Fresh vector, a release) it detaches with Copy or Release.
type DecView struct {
	Hdr      ExchangeHdr
	ID       uint64
	n        int
	entries  []byte
	Fresh    homenc.VectorView
	released bool
	release  []byte // the release's values, 8 bytes each
}

// Elected returns the identifier of the vector the sender decrypts.
func (v DecView) Elected() uint64 { return v.ID }

// Released reports whether the leg is marked released.
func (v DecView) Released() bool { return v.released }

// ReleaseLen returns how many released values the leg carries.
func (v DecView) ReleaseLen() int { return len(v.release) / 8 }

// Release decodes the released values the leg carries into a slice of
// their own; nil when the leg is not marked released.
func (v DecView) Release() []float64 {
	if !v.released {
		return nil
	}
	out := make([]float64, v.ReleaseLen())
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(v.release[8*i:]))
	}
	return out
}

// SameRelease reports whether the leg carries rel, bit for bit.
func (v DecView) SameRelease(rel []float64) bool {
	if v.ReleaseLen() != len(rel) {
		return false
	}
	for i, x := range rel {
		if binary.BigEndian.Uint64(v.release[8*i:]) != math.Float64bits(x) {
			return false
		}
	}
	return true
}

// Gathered returns how many entries the leg has.
func (v DecView) Gathered() int { return v.n }

// Entry returns the share index of the entry at cursor c — a byte
// offset into the entries, 0 for the first — whether it carries partial
// decryptions, and the cursor of the next entry.
func (v DecView) Entry(c int) (idx int, carries bool, next int) {
	idx, part, next := v.At(c)
	return idx, part.Len() > 0, next
}

// At returns the entry at cursor c: its share index, the partial
// decryptions it carries (the empty vector: none) and the cursor of the
// next entry.
func (v DecView) At(c int) (idx int, part homenc.VectorView, next int) {
	part, rest := homenc.VettedVector(v.entries[c+4:])
	return int(binary.BigEndian.Uint32(v.entries[c:])), part, len(v.entries) - len(rest)
}

// Part detaches the partial decryptions of the entry at cursor c from
// the payload: the vector keeps the image it arrived with.
func (v DecView) Part(c int) *homenc.Vector {
	_, part, _ := v.At(c)
	return part.Copy()
}

// ScanDec scans a DecMsg payload. A payload it refuses scans to a view
// with no entries.
func ScanDec(data []byte, lim Limits) (DecView, error) {
	d := Dec{B: data}
	v := DecView{Hdr: decodeHdr(&d), ID: d.U64()}
	n := int(d.U16())
	if d.err == nil && n > lim.MaxParts {
		return v, fmt.Errorf("wireproto: %d partial sets exceed bound %d", n, lim.MaxParts)
	}
	entries := d.B
	for i, last := 0, -1; i < n && d.err == nil; i++ {
		idx := int(d.U32())
		d.vector(lim.MaxDim+1, lim.MaxCTBytes)
		if d.err == nil && idx <= last {
			return v, errors.New("wireproto: partial share indices not strictly ascending")
		}
		last = idx
	}
	entries = entries[:len(entries)-len(d.B)]
	fresh := d.vector(lim.MaxDim+1, lim.MaxCTBytes)
	released, release, err := scanRelease(&d, lim.MaxDim)
	if err != nil {
		return v, err
	}
	if err := d.Done(); err != nil {
		return v, err
	}
	v.n, v.entries, v.Fresh, v.released, v.release = n, entries, fresh, released, release
	return v, nil
}

// scanRelease consumes a decryption leg's release mark and the values
// it carries: at most maxLen, each finite.
func scanRelease(d *Dec, maxLen int) (released bool, release []byte, err error) {
	switch mark := d.U8(); {
	case d.err != nil:
		return false, nil, d.err
	case mark > 1:
		return false, nil, fmt.Errorf("wireproto: release mark %d", mark)
	case mark == 0:
		return false, nil, nil
	}
	n := int(d.U16())
	if d.err == nil && n > maxLen {
		return false, nil, fmt.Errorf("wireproto: release of %d values exceeds bound %d", n, maxLen)
	}
	release = d.next(8 * n)
	for i := 0; i+8 <= len(release); i += 8 {
		if x := math.Float64frombits(binary.BigEndian.Uint64(release[i:])); math.IsNaN(x) || math.IsInf(x, 0) {
			return false, nil, errors.New("wireproto: release value not finite")
		}
	}
	return true, release, d.err
}

// vector consumes one ciphertext vector from the cursor, unbuilt.
func (d *Dec) vector(maxLen, maxBytes int) homenc.VectorView {
	if d.err != nil {
		return homenc.VectorView{}
	}
	v, rest, err := homenc.ScanVectorBound(d.B, maxLen, maxBytes)
	if err != nil {
		d.err = err
		return homenc.VectorView{}
	}
	d.B = rest
	return v
}

// intImage consumes one homenc canonical integer from the cursor and
// returns its encoding, unbuilt.
func (d *Dec) intImage(maxBytes int) []byte {
	if d.err != nil {
		return nil
	}
	size, _, err := homenc.ScanIntBound(d.B, maxBytes)
	if err != nil {
		d.err = err
		return nil
	}
	img := d.B[:size]
	d.B = d.B[size:]
	return img
}

// intOf materializes an integer whose encoding intImage already vetted.
func intOf(img []byte) *big.Int {
	v, _, _ := homenc.UnmarshalIntBound(img, len(img))
	return v
}
