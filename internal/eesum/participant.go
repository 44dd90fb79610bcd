// The participant machine: one participant's protocol state for one
// iteration and every transition Algorithms 2 and 3 define on it. It
// holds no clock, socket, goroutine or wire type, so both drivers run
// it unchanged — internal/core over the in-memory cycle engine,
// internal/node over frames, retries and the journal — and a networked
// run reproduces a simulated one because the rules exist once.

package eesum

import (
	"math/big"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/randx"
)

// Env is what every participant of one deployment shares and nothing
// changes: the scheme, the ciphertext slot layout (Pack.Codec is the
// fixed-point codec) and the worker bound of the per-vector loops.
type Env struct {
	Scheme  homenc.Scheme
	Pack    homenc.PackedCodec
	Workers int
}

// workers is the worker count of a loop over a vector of n elements.
func (e *Env) workers(n int) int { return DimWorkers(n, e.Workers) }

// SumSide is one EESum state at rest: its ciphertext vector, its
// integer weight and its epoch. The vector a merge produces is its
// canonical wire image and nothing else — the bytes the next send and
// the journal checkpoint want — so between exchanges a state holds no
// big.Int values; they exist only inside the merge kernel and, once per
// iteration, for the decryption. A state is replaced wholesale, never
// modified in place, and two participants may hold the same one: it is
// only ever read (Operand), never materialized into.
type SumSide struct {
	CTs   *homenc.Vector
	Omega *big.Int
	Epoch int
}

// Operand returns the state as the update rule reads it.
func (s SumSide) Operand() SumOperand {
	return SumOperand{CTs: s.CTs.Operand(), Omega: s.Omega, Epoch: s.Epoch}
}

// State returns the state in value form, its ciphertexts decoded into a
// slab of their own: the state itself is left as it is.
func (s SumSide) State() SumState {
	return SumState{CTs: s.CTs.CopyValues(), Omega: s.Omega, Epoch: s.Epoch}
}

// Participant is one participant's live protocol state for one
// iteration: the encrypted side of its Diptych (Definition 6) — the
// means sum and the noise sum running in lockstep, with the cleartext
// participant counter — then the correction proposal of the noise
// generation (Section 4.2.2), then the epidemic decryption state
// (Section 4.2.3). The exported fields are what an exchange leg sends
// and a journal checkpoint records; the methods are the transitions.
//
// A participant belongs to one exchange at a time. Once its decryption
// state is Settled no transition writes to it, so the wire runtime may
// serve several exchanges from it concurrently.
type Participant struct {
	Means, Noise SumSide
	CtrS, CtrW   float64 // the counter's σ and ω

	CorID  uint64
	CorVec []float64 // nil until the proposal is drawn

	DecCTs   *homenc.Vector
	DecOmega *big.Int
	DecParts map[int]*homenc.Vector // nil until the decryption starts

	env    *Env
	index  int        // 0-based; the key-share index is index+1
	stream *randx.RNG // this participant's noise stream (NodeNoiseStream)
	noise  NoiseConfig
}

// NewParticipant binds participant index of a deployment to one
// iteration: its noise stream and the iteration's noise configuration.
// Start gives it its state.
func NewParticipant(env *Env, index int, stream *randx.RNG, noise NoiseConfig) *Participant {
	return &Participant{env: env, index: index, stream: stream, noise: noise}
}

// Resume binds a participant restored from a journal checkpoint to its
// run, as NewParticipant binds a fresh one, and replays the draw Start
// made: the restored ciphertexts already hold the noise-shares, and the
// stream must sit where it did before the crash. Transitions of
// boundaries the checkpoint had passed keep the restored state.
func (p *Participant) Resume(env *Env, index int, stream *randx.RNG, noise NoiseConfig) {
	p.env, p.index, p.stream, p.noise = env, index, stream, noise
	NoiseShareVector(stream, noise)
}

// share returns the participant's 1-based key-share index.
func (p *Participant) share() int { return p.index + 1 }

// Start begins an iteration from the participant's packed, encoded
// means contribution (the assignment step's output): it encrypts the
// contribution, draws its noise-share vector (Definition 5) from its
// stream and encrypts that, and seeds the counter. Participant 0 holds
// the epidemic weight 1 of both sums and the counter (Section 3.2,
// footnote 5).
func (p *Participant) Start(contribution []*big.Int) {
	codec := p.env.Pack.Codec
	shares := NoiseShareVector(p.stream, p.noise)
	noise := make([]*big.Int, len(shares))
	for j, x := range shares {
		noise[j] = codec.Encode(x)
	}
	p.Means = p.encrypt(contribution)
	p.Noise = p.encrypt(p.env.Pack.Pack(noise))
	p.CtrS, p.CtrW = 1, 0
	if p.index == 0 {
		p.CtrW = 1
	}
}

// encrypt builds an initial EESum state: epoch 0, weight 1 on
// participant 0 and 0 elsewhere.
func (p *Participant) encrypt(vec []*big.Int) SumSide {
	cts := make([]homenc.Ciphertext, len(vec))
	for j, v := range vec {
		cts[j] = p.env.Scheme.Encrypt(v)
	}
	omega := big.NewInt(0)
	if p.index == 0 {
		omega = big.NewInt(1)
	}
	return SumSide{CTs: homenc.NewVector(cts), Omega: omega}
}

// --- Sum phase (Algorithm 2 on both sums, push-pull on the counter) ---

// SumPeer is the other side of a sum exchange as it arrived: its two
// EESum states, read where they are, and its counter.
type SumPeer struct {
	Means, Noise SumOperand
	CtrS, CtrW   float64
}

func (p *Participant) sumPeer() SumPeer {
	return SumPeer{Means: p.Means.Operand(), Noise: p.Noise.Operand(), CtrS: p.CtrS, CtrW: p.CtrW}
}

// CommitSum applies this side's half of a sum exchange: Algorithm 2's
// update rule on both lockstep sums and the pairwise average on the
// counter. Both sides compute in (initiator, responder) order. The
// peer's states are only read — a driver passes them straight from the
// frame they arrived in — and the new states are the kernel's images.
func (p *Participant) CommitSum(peer SumPeer, initiator bool) {
	a, b := p.sumPeer(), peer
	if !initiator {
		a, b = b, a
	}
	sch, w := p.env.Scheme, p.env.workers(a.Means.CTs.Len())
	p.Means = mergeSum(sch, a.Means, b.Means, w)
	p.Noise = mergeSum(sch, a.Noise, b.Noise, w)
	p.CtrS, p.CtrW = (a.CtrS+b.CtrS)/2, (a.CtrW+b.CtrW)/2
}

// ExchangeSum runs a whole sum exchange between initiator p and
// responder q in memory. The merge is computed once; q takes the same
// result unless the exchange ends half-completed (!full: the responder
// dropped out, Section 6.1.5).
func (p *Participant) ExchangeSum(q *Participant, full bool) {
	p.CommitSum(q.sumPeer(), true)
	if full {
		q.Means, q.Noise, q.CtrS, q.CtrW = p.Means, p.Noise, p.CtrS, p.CtrW
	}
}

// --- Noise correction (Section 4.2.2) ---

// ProposeCorrection draws the participant's surplus-correction proposal
// from its stream once the sum phase has ended (CorrectionProposal, from
// the counter's estimate). A participant resumed past this point draws
// too — the stream must advance — but keeps the proposal it was
// restored with, or the smaller one it had adopted since.
func (p *Participant) ProposeCorrection() {
	est, ok := 0.0, p.CtrW > 0
	if ok {
		est = p.CtrS / p.CtrW
	}
	id, vec := CorrectionProposal(p.stream, p.noise, est, ok)
	if p.CorVec == nil {
		p.CorID, p.CorVec = id, vec
	}
}

// CommitCorrection is this side's min-identifier dissemination step:
// the proposal with the smaller identifier wins.
func (p *Participant) CommitCorrection(id uint64, vec []float64) {
	if id < p.CorID {
		p.CorID, p.CorVec = id, vec
	}
}

// ExchangeCorrection runs a whole dissemination exchange between
// initiator p and responder q in memory.
func (p *Participant) ExchangeCorrection(q *Participant, full bool) {
	p.CommitCorrection(q.CorID, q.CorVec)
	if full {
		q.CommitCorrection(p.CorID, p.CorVec)
	}
}

// StartDecryption is the boundary between the dissemination and the
// decryption (Algorithm 3, lines 6–7): the agreed correction is
// subtracted from the noise sum, the noise added into the means, and
// the decryption starts on the perturbed means with no key-share
// gathered. A participant resumed past this boundary holds its result
// already and keeps it.
func (p *Participant) StartDecryption() error {
	if p.DecParts != nil {
		return nil
	}
	sch := p.env.Scheme
	cor := make([]*big.Int, len(p.CorVec))
	for j, x := range p.CorVec {
		cor[j] = new(big.Int).Neg(p.env.Pack.Codec.Encode(x))
	}
	// The correction rewrites ciphertext slots, so it runs on the noise
	// state's values decoded into a slab of this participant's own: the
	// state it replaces may be shared with another participant, and is
	// never written. Packing is linear, so the packed negated correction
	// subtracts exactly per slot.
	noise := p.Noise.State()
	if err := AddEncryptedState(sch, noise, p.env.Pack.Pack(cor), p.env.workers(len(noise.CTs))); err != nil {
		return err
	}
	corrected := SumSide{CTs: homenc.NewVector(noise.CTs), Omega: noise.Omega, Epoch: noise.Epoch}
	means, err := PerturbState(sch, p.Means.Operand(), corrected.Operand())
	if err != nil {
		return err
	}
	// The decryption reads the perturbed means' values on every leg: they
	// are decoded now, once, while the vector is still this participant's
	// alone.
	means.CTs.Seal()
	p.Noise, p.Means = corrected, means
	p.DecCTs, p.DecOmega = means.CTs, means.Omega
	p.DecParts = make(map[int]*homenc.Vector, sch.Threshold())
	return nil
}

// --- Epidemic decryption (Section 4.2.3) ---

// DecPeer is the other side of a decryption exchange, in whatever form
// a driver holds it: another participant in memory, a scanned frame on
// the wire.
type DecPeer interface {
	// Gathered returns how many key-shares the peer's state holds.
	Gathered() int
	// Wants reports whether the peer's state still wants key-share idx
	// (DecNeeds).
	Wants(idx, threshold int) bool
	// Ciphertexts returns the values of the peer's ciphertext vector.
	Ciphertexts() []homenc.Ciphertext
	// Detach returns the peer's whole state for adoption — ciphertexts,
	// weight, and the gathered partials capped at threshold (CopyParts) —
	// independent of the peer.
	Detach(threshold int) (*homenc.Vector, *big.Int, map[int]*homenc.Vector)
}

// DecPrep is one side of a decryption exchange, prepared from both
// sides' pre-exchange states before either changes.
type DecPrep struct {
	// Fresh is this side's key-share over the peer's post-adoption
	// ciphertexts — what its response or fin leg carries — or nil when
	// the peer does not want it.
	Fresh *homenc.Vector

	adopt, peerAdopts bool
	cts               *homenc.Vector // the peer's state, detached (only when adopt)
	omega             *big.Int
	parts             map[int]*homenc.Vector
}

// PrepareDec prepares participant p's side of a decryption exchange: it
// decides the exchange (Section 4.2.3's latency rule: the less advanced
// side adopts the more advanced side's whole state) and computes p's
// key-share for the peer, if the peer's post-adoption state wants it.
// Adoption decisions depend only on the pre-exchange states, and after
// an adoption both sides hold the same ciphertexts, so the share is
// computed once and CommitDec reuses it for p's own state. An initiator
// whose exchange is scheduled to end half-completed (!full) computes
// nothing for the peer. It is generic rather than a method taking the
// interface so that a driver's peer — a scanned frame on every exchange
// leg — is not boxed onto the heap.
func PrepareDec[P DecPeer](p *Participant, peer P, full bool) DecPrep {
	tau, share := p.env.Scheme.Threshold(), p.share()
	x := DecPrep{
		adopt:      DecAdopts(len(p.DecParts), peer.Gathered()),
		peerAdopts: DecAdopts(peer.Gathered(), len(p.DecParts)),
	}
	if x.adopt {
		x.cts, x.omega, x.parts = peer.Detach(tau)
	}
	switch {
	case !full:
	case x.peerAdopts:
		if DecNeeds(p.DecParts, tau, share) {
			x.Fresh = p.ownShare(p.DecCTs.Values())
		}
	case !peer.Wants(share, tau):
	case x.adopt:
		x.Fresh = p.ownShare(x.cts.Values())
	default:
		x.Fresh = p.ownShare(peer.Ciphertexts())
	}
	return x
}

// CommitDec applies this side's transition: adopt, then the peer's
// key-share, then this side's own — the commit point, applied exactly
// once. fresh is the peer's key-share over this side's post-adoption
// ciphertexts (nil: none arrived).
func (p *Participant) CommitDec(x DecPrep, peerShare int, fresh *homenc.Vector) {
	tau, share := p.env.Scheme.Threshold(), p.share()
	if x.adopt {
		p.DecCTs, p.DecOmega, p.DecParts = x.cts, x.omega, x.parts
	}
	if fresh != nil && DecNeeds(p.DecParts, tau, peerShare) {
		p.DecParts[peerShare] = fresh
	}
	if DecNeeds(p.DecParts, tau, share) {
		own := x.Fresh
		if own == nil || !(x.adopt || x.peerAdopts) {
			own = p.ownShare(p.DecCTs.Values())
		}
		if own != nil {
			p.DecParts[share] = own
		}
	}
}

// ExchangeDec runs a whole decryption exchange between initiator p and
// responder q in memory, as the wire legs do: both sides prepare against
// the other's pre-exchange state, then p commits, and q too unless the
// exchange ends half-completed.
func (p *Participant) ExchangeDec(q *Participant, full bool) {
	xp, xq := PrepareDec(p, memPeer{q}, full), PrepareDec(q, memPeer{p}, true)
	p.CommitDec(xp, q.share(), xq.Fresh)
	if full {
		q.CommitDec(xq, p.share(), xp.Fresh)
	}
}

// memPeer is a participant as the peer of an in-memory exchange.
type memPeer struct{ p *Participant }

func (m memPeer) Gathered() int                    { return len(m.p.DecParts) }
func (m memPeer) Wants(idx, threshold int) bool    { return DecNeeds(m.p.DecParts, threshold, idx) }
func (m memPeer) Ciphertexts() []homenc.Ciphertext { return m.p.DecCTs.Values() }
func (m memPeer) Detach(threshold int) (*homenc.Vector, *big.Int, map[int]*homenc.Vector) {
	return m.p.DecCTs, m.p.DecOmega, CopyParts(m.p.DecParts, threshold)
}

// ownShare applies this participant's key-share to a ciphertext vector
// and returns the partial decryptions as the image they are sent and
// journaled as: the values DecPartials computed are written into it
// and dropped. A failure cannot happen for a provisioned share index; it
// would just leave the share unapplied.
func (p *Participant) ownShare(cts []homenc.Ciphertext) *homenc.Vector {
	ps, err := DecPartials(p.env.Scheme, p.share(), cts, p.env.workers(len(cts)))
	if err != nil {
		return nil
	}
	size := 0
	for _, x := range ps {
		size += (x.V.BitLen() + 7) / 8
	}
	w := homenc.NewVectorWriter(len(ps), size)
	for _, x := range ps {
		w.Append(x.V)
	}
	return w.Vector()
}

// Settled reports whether the decryption state can no longer change: τ
// key-shares are gathered. No peer state holds more than τ (the wire
// runtime's limits cap them there), so such a state never adopts, never
// wants a share and owes no peer one computed from anything but itself —
// PrepareDec and CommitDec become pure reads, and its remaining
// exchanges commute with one another.
func (p *Participant) Settled() bool { return len(p.DecParts) >= p.env.Scheme.Threshold() }

// Release combines the gathered key-shares into the plaintexts of the
// held ciphertexts and decodes the dim released values with the held
// weight. It fails below the threshold.
func (p *Participant) Release(dim int) ([]float64, error) {
	sch := p.env.Scheme
	parts := make(map[int][]homenc.PartialDecryption, len(p.DecParts))
	//lint:orderfree whole-map conversion: every entry lands regardless of order
	for idx, ps := range p.DecParts {
		parts[idx] = ps.PartialDecryptions(idx)
	}
	cts := p.DecCTs.Values()
	ms, err := CombineParts(sch, cts, parts, sch.Threshold(), p.env.workers(len(cts)))
	if err != nil {
		return nil, err
	}
	return DecodePackedState(sch, p.env.Pack, ms, p.DecOmega, dim)
}
