package wireproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"

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
	e := enc{b: dst}
	e.u32(h.Iter)
	e.u32(h.Cycle)
	e.u32(h.Seq)
	e.u32(h.From)
	e.u32(h.To)
	e.u8(h.Flags)
	return e.b
}

func decodeHdr(d *dec) ExchangeHdr {
	return ExchangeHdr{
		Iter:  d.u32(),
		Cycle: d.u32(),
		Seq:   d.u32(),
		From:  d.u32(),
		To:    d.u32(),
		Flags: d.u8(),
	}
}

// PeekHdr decodes just the leading ExchangeHdr of an exchange payload,
// letting a listener route a request to its scheduled slot without
// paying for the full (possibly large) message decode.
func PeekHdr(data []byte) (ExchangeHdr, error) {
	d := dec{b: data}
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
	var e enc
	e.u32(h.Index)
	e.str(h.Addr)
	e.u32(h.N)
	e.u64(h.Digest)
	return e.bytes()
}

// UnmarshalHello decodes a Hello payload.
func UnmarshalHello(data []byte, lim Limits) (Hello, error) {
	d := dec{b: data}
	h := Hello{Index: d.u32()}
	h.Addr = d.str(lim.MaxAddrLen)
	h.N = d.u32()
	h.Digest = d.u64()
	return h, d.done()
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
	var e enc
	e.u32(r.Index)
	e.str(r.Addr)
	e.u32(r.N)
	e.u64(r.Digest)
	e.u32(r.Iter)
	e.u32(r.Phase)
	e.u32(r.Cycle)
	e.u32(r.Seq)
	return e.bytes()
}

// UnmarshalResume decodes a Resume payload.
func UnmarshalResume(data []byte, lim Limits) (Resume, error) {
	d := dec{b: data}
	r := Resume{Index: d.u32()}
	r.Addr = d.str(lim.MaxAddrLen)
	r.N = d.u32()
	r.Digest = d.u64()
	r.Iter = d.u32()
	r.Phase = d.u32()
	r.Cycle = d.u32()
	r.Seq = d.u32()
	return r, d.done()
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
	var e enc
	e.str(r.Reason)
	return e.bytes()
}

// UnmarshalReject decodes a Reject payload.
func UnmarshalReject(data []byte) (Reject, error) {
	d := dec{b: data}
	r := Reject{Reason: d.str(maxRejectReason)}
	return r, d.done()
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
	var e enc
	e.u32(uint32(len(items)))
	for _, it := range items {
		e.u32(it.Index)
		e.str(it.Addr)
		e.u64(uint64(it.Heartbeat))
	}
	return e.bytes()
}

// UnmarshalView decodes a view payload, bounded by lim.MaxPeers.
func UnmarshalView(data []byte, lim Limits) ([]ViewItem, error) {
	d := dec{b: data}
	n := int(d.u32())
	if d.err == nil && n > lim.MaxPeers {
		return nil, fmt.Errorf("wireproto: view of %d items exceeds bound %d", n, lim.MaxPeers)
	}
	items := make([]ViewItem, 0, minInt(n, len(data)/7+1))
	for i := 0; i < n; i++ {
		it := ViewItem{Index: d.u32()}
		it.Addr = d.str(lim.MaxAddrLen)
		it.Heartbeat = int64(d.u64())
		if d.err != nil {
			break
		}
		items = append(items, it)
	}
	if err := d.done(); err != nil {
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
	var e enc
	e.u32(l.Index)
	return e.bytes()
}

// UnmarshalLeave decodes a Leave payload.
func UnmarshalLeave(data []byte) (Leave, error) {
	d := dec{b: data}
	l := Leave{Index: d.u32()}
	return l, d.done()
}

// --- encrypted sum phase ---

// SumMsg carries one side's full sum-phase state: the encrypted means
// EESum state, the encrypted noise EESum state running in lockstep, and
// the cleartext participant counter piggybacking on the same exchange.
// It is the decoded form; the exchange legs send a SumOut.
type SumMsg struct {
	Hdr      ExchangeHdr
	Means    eesum.SumState
	Noise    eesum.SumState
	CtrSigma float64
	CtrOmega float64
}

// SumSide is one EESum state in wire-ready form. A participant's state
// at rest is already one: its vector is the image the next send appends.
type SumSide = eesum.SumSide

// SideOf wraps a plain EESum state for sending. The caller must not
// modify st.CTs afterwards.
func SideOf(st eesum.SumState) SumSide {
	return SumSide{CTs: homenc.NewVector(st.CTs), Omega: st.Omega, Epoch: st.Epoch}
}

func sideSize(s SumSide) int { return s.CTs.WireSize() + homenc.IntWireSize(s.Omega) + 4 }

func appendSide(dst []byte, s SumSide) []byte {
	dst = homenc.AppendInt(s.CTs.AppendTo(dst), s.Omega)
	return binary.BigEndian.AppendUint32(dst, uint32(s.Epoch))
}

// SumOut is the sending form of a SumMsg (KindSumReq and KindSumResp).
type SumOut struct {
	Hdr      ExchangeHdr
	Means    SumSide
	Noise    SumSide
	CtrSigma float64
	CtrOmega float64
}

// Size implements Message.
func (m *SumOut) Size() int { return hdrSize + sideSize(m.Means) + sideSize(m.Noise) + 16 }

// AppendTo implements Message.
func (m *SumOut) AppendTo(dst []byte) []byte {
	e := enc{b: appendSide(appendSide(m.Hdr.appendTo(dst), m.Means), m.Noise)}
	e.f64(m.CtrSigma)
	e.f64(m.CtrOmega)
	return e.b
}

// MarshalSum encodes a SumMsg payload.
func MarshalSum(m SumMsg) []byte {
	return Marshal(&SumOut{Hdr: m.Hdr, Means: SideOf(m.Means), Noise: SideOf(m.Noise), CtrSigma: m.CtrSigma, CtrOmega: m.CtrOmega})
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

func scanSumSide(d *dec, lim Limits) SumSideView {
	v := SumSideView{CTs: d.vector(lim.MaxDim, lim.MaxCTBytes)}
	v.omega = d.intImage(lim.MaxCTBytes)
	v.Epoch = int(d.u32())
	return v
}

// SumView is the structural scan of a SumMsg payload: every bound of
// Limits enforced, no big.Int built. It aliases the payload.
type SumView struct {
	Hdr      ExchangeHdr
	Means    SumSideView
	Noise    SumSideView
	CtrSigma float64
	CtrOmega float64
}

// Peer returns the scanned side as the other side of a sum exchange,
// read in place: valid only as long as the payload is.
func (v SumView) Peer() eesum.SumPeer {
	return eesum.SumPeer{Means: v.Means.Operand(), Noise: v.Noise.Operand(), CtrS: v.CtrSigma, CtrW: v.CtrOmega}
}

// ScanSum scans a SumMsg payload.
func ScanSum(data []byte, lim Limits) (SumView, error) {
	d := dec{b: data}
	v := SumView{Hdr: decodeHdr(&d)}
	v.Means = scanSumSide(&d, lim)
	v.Noise = scanSumSide(&d, lim)
	v.CtrSigma = d.f64()
	v.CtrOmega = d.f64()
	return v, d.done()
}

// UnmarshalSum decodes a SumMsg payload.
func UnmarshalSum(data []byte, lim Limits) (SumMsg, error) {
	v, err := ScanSum(data, lim)
	if err != nil {
		return SumMsg{}, err
	}
	return SumMsg{Hdr: v.Hdr, Means: v.Means.State(), Noise: v.Noise.State(), CtrSigma: v.CtrSigma, CtrOmega: v.CtrOmega}, nil
}

// Fin is the bare commit leg closing a sum or dissemination exchange
// (KindSumFin, KindDissFin): the responder applies its half only when
// it arrives, which is what reproduces the half-completed exchange of
// Section 6.1.5 when the initiator (or the link) dies in between. It is
// read with PeekHdr.
type Fin struct {
	Hdr ExchangeHdr
}

// Size implements Message.
func (f Fin) Size() int { return hdrSize }

// AppendTo implements Message.
func (f Fin) AppendTo(dst []byte) []byte { return f.Hdr.appendTo(dst) }

// --- noise-correction dissemination ---

// DissMsg carries one side's correction proposal (KindDissReq,
// KindDissResp): the random identifier and the surplus correction
// vector (min identifier wins, Section 4.2.2).
type DissMsg struct {
	Hdr ExchangeHdr
	ID  uint64
	Vec []float64
}

// Size implements Message.
func (m *DissMsg) Size() int { return hdrSize + 8 + 4 + 8*len(m.Vec) }

// AppendTo implements Message.
func (m *DissMsg) AppendTo(dst []byte) []byte {
	e := enc{b: m.Hdr.appendTo(dst)}
	e.u64(m.ID)
	e.u32(uint32(len(m.Vec)))
	for _, v := range m.Vec {
		e.f64(v)
	}
	return e.b
}

// UnmarshalDiss decodes a DissMsg payload.
func UnmarshalDiss(data []byte, lim Limits) (DissMsg, error) {
	d := dec{b: data}
	m := DissMsg{Hdr: decodeHdr(&d), ID: d.u64()}
	n := int(d.u32())
	if d.err == nil && n > lim.MaxDim {
		return m, fmt.Errorf("wireproto: correction vector of %d exceeds bound %d", n, lim.MaxDim)
	}
	m.Vec = make([]float64, 0, minInt(n, len(d.b)/8+1))
	for i := 0; i < n && d.err == nil; i++ {
		m.Vec = append(m.Vec, d.f64())
	}
	return m, d.done()
}

// --- epidemic decryption ---

// DecMsg is the sending form of a decryption leg (KindDecReq,
// KindDecResp, KindDecFin): one side's epidemic decryption state — the
// ciphertext vector it is decrypting, the weight that decodes it, and
// the partial decryptions gathered so far — plus, on the response and
// fin legs, the sender's own key-share applied to the receiver's
// (post-adoption) ciphertexts. Fresh is empty on KindDecReq;
// CTs/Omega/Parts are empty on KindDecFin. Every vector carries its
// cached image: a state that is re-sent unchanged, leg after leg, is
// appended with a few copies.
type DecMsg struct {
	Hdr   ExchangeHdr
	CTs   *homenc.Vector
	Omega *big.Int // nil encodes as zero
	Parts map[int]*homenc.Partials
	Fresh *homenc.Partials
}

// Size implements Message.
func (m *DecMsg) Size() int {
	size := hdrSize + m.CTs.WireSize() + homenc.IntWireSize(m.omega()) + 2 + m.Fresh.WireSize()
	for _, ps := range m.Parts {
		size += 4 + ps.WireSize()
	}
	return size
}

// zero stands in for the absent weight of a fin leg.
var zero = new(big.Int)

func (m *DecMsg) omega() *big.Int {
	if m.Omega == nil {
		return zero
	}
	return m.Omega
}

// AppendTo implements Message.
func (m *DecMsg) AppendTo(dst []byte) []byte {
	e := enc{b: homenc.AppendInt(m.CTs.AppendTo(m.Hdr.appendTo(dst)), m.omega())}
	e.u16(uint16(len(m.Parts)))
	// Canonical share-index order: encoding must not depend on map
	// iteration order (peers compare and hash frames in tests).
	idxs := make([]int, 0, len(m.Parts))
	for idx := range m.Parts {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		e.u32(uint32(idx))
		e.b = m.Parts[idx].AppendTo(e.b)
	}
	return m.Fresh.AppendTo(e.b)
}

// DecView is the structural scan of a DecMsg payload: every bound of
// Limits enforced — exactly the frames an eager decode would accept —
// with no big.Int built. It aliases the payload; what a receiver keeps
// (an adopted state, an accepted Fresh vector) it detaches with Copy,
// and what the crypto needs it materializes with Values. It is the peer
// of an eesum.Participant's decryption exchange (eesum.DecPeer).
type DecView struct {
	Hdr   ExchangeHdr
	CTs   homenc.VectorView
	omega []byte
	Parts map[int]homenc.PartialsView
	Fresh homenc.PartialsView
}

// Omega materializes the state's weight.
func (v DecView) Omega() *big.Int { return intOf(v.omega) }

// Gathered returns how many partial sets the state carries.
func (v DecView) Gathered() int { return len(v.Parts) }

// Wants reports whether the state still wants key-share idx.
func (v DecView) Wants(idx, threshold int) bool { return eesum.DecNeeds(v.Parts, threshold, idx) }

// Ciphertexts materializes the state's ciphertext vector.
func (v DecView) Ciphertexts() []homenc.Ciphertext { return v.CTs.Values() }

// Detach copies the state out of the payload for adoption: the vectors
// keep the images they arrived with, and the partial sets are capped at
// threshold (eesum.CopyParts).
func (v DecView) Detach(threshold int) (*homenc.Vector, *big.Int, map[int]*homenc.Partials) {
	parts := make(map[int]*homenc.Partials, threshold)
	for idx, ps := range eesum.CopyParts(v.Parts, threshold) {
		parts[idx] = ps.Copy()
	}
	return v.CTs.Copy(), v.Omega(), parts
}

// ScanDec scans a DecMsg payload.
func ScanDec(data []byte, lim Limits) (DecView, error) {
	d := dec{b: data}
	v := DecView{Hdr: decodeHdr(&d)}
	v.CTs = d.vector(lim.MaxDim, lim.MaxCTBytes)
	v.omega = d.intImage(lim.MaxCTBytes)
	nParts := int(d.u16())
	if d.err == nil && nParts > lim.MaxParts {
		return v, fmt.Errorf("wireproto: %d partial sets exceed bound %d", nParts, lim.MaxParts)
	}
	v.Parts = make(map[int]homenc.PartialsView, nParts)
	for i := 0; i < nParts && d.err == nil; i++ {
		idx := int(d.u32())
		ps := d.partials(lim.MaxDim+1, lim.MaxCTBytes)
		if d.err == nil {
			if _, dup := v.Parts[idx]; dup {
				return v, errors.New("wireproto: duplicate partial share index")
			}
			v.Parts[idx] = ps
		}
	}
	v.Fresh = d.partials(lim.MaxDim+1, lim.MaxCTBytes)
	return v, d.done()
}

// vector consumes one ciphertext vector from the cursor, unbuilt.
func (d *dec) vector(maxLen, maxBytes int) homenc.VectorView {
	if d.err != nil {
		return homenc.VectorView{}
	}
	v, rest, err := homenc.ScanVectorBound(d.b, maxLen, maxBytes)
	if err != nil {
		d.err = err
		return homenc.VectorView{}
	}
	d.b = rest
	return v
}

// partials consumes one partial-decryption vector from the cursor,
// unbuilt.
func (d *dec) partials(maxLen, maxBytes int) homenc.PartialsView {
	if d.err != nil {
		return homenc.PartialsView{}
	}
	v, rest, err := homenc.ScanPartialsBound(d.b, maxLen, maxBytes)
	if err != nil {
		d.err = err
		return homenc.PartialsView{}
	}
	d.b = rest
	return v
}

// intImage consumes one homenc canonical integer from the cursor and
// returns its encoding, unbuilt.
func (d *dec) intImage(maxBytes int) []byte {
	if d.err != nil {
		return nil
	}
	size, _, err := homenc.ScanIntBound(d.b, maxBytes)
	if err != nil {
		d.err = err
		return nil
	}
	img := d.b[:size]
	d.b = d.b[size:]
	return img
}

// intOf materializes an integer whose encoding intImage already vetted.
func intOf(img []byte) *big.Int {
	v, _, _ := homenc.UnmarshalIntBound(img, len(img))
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
