// The participant machine: one participant's protocol state for one
// iteration and every transition Algorithms 2 and 3 define on it. It
// holds no clock, socket, goroutine or wire type, so both drivers run
// it unchanged — internal/core over the in-memory cycle engine,
// internal/node over frames, retries and the journal — and a networked
// run reproduces a simulated one because the rules exist once.

package eesum

import (
	"cmp"
	"errors"
	"math"
	"math/big"
	"slices"

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
	// SumEpochs bounds the epoch a sum state reaches by the end of the
	// sum phase (0: unknown). A scheme with unbounded plaintexts widens
	// its values by up to a bit an epoch, and a participant sizes its
	// spare image for the width that bound allows.
	SumEpochs int
}

// workers is the worker count of a loop over a vector of n elements.
func (e *Env) workers(n int) int { return DimWorkers(n, e.Workers) }

// SumSide is one EESum state at rest: its ciphertext vector, its
// integer weight and its epoch. The vector a merge produces is its
// canonical wire image and nothing else — the bytes the next send and
// the journal checkpoint want — so between exchanges a state holds no
// big.Int values; they exist only inside the merge kernel. A state's
// vector belongs to one participant: a merge writes into the
// participant's spare image (CommitSum), and a responder adopting its
// initiator's result copies it into its own (ExchangeSum), so no two
// participants hold the same state. The image stays valid until its
// owner's next-but-one sum commit, which rewrites it.
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
// iteration: the encrypted side of its Diptych (Definition 6) as one
// EESum state, the means with the noise folded in, and the cleartext
// participant counter, then the perturbed means it stands for election
// with (Section 4.2.2's correction, applied before the dissemination),
// then the key-shares gathered over the elected vector (Section 4.2.3),
// and at last the release they decode to. The exported fields are what
// an exchange leg sends and a journal checkpoint records; the methods
// are the transitions.
//
// A participant belongs to one exchange at a time. Once its decryption
// state is Settled no transition writes to it, so the wire runtime may
// serve several exchanges from it concurrently.
type Participant struct {
	// Means is the sum of every participant's contribution and
	// noise-share: Algorithm 3's M.s +h N.s, one state from the start.
	Means      SumSide
	CtrS, CtrW float64 // the counter's σ and ω

	// The vector this participant holds elected: the identifier of the
	// correction proposal it was perturbed with (the smallest wins), the
	// perturbed means and their weight. Vec is nil until Propose.
	VecID    uint64
	Vec      *homenc.Vector
	VecOmega *big.Int

	DecParts []Part         // the share set, ascending share index; nil until the decryption starts
	Own      *homenc.Vector // this participant's key-share over Vec, once applied
	// Released is the decoded release of Vec, its relDim values: combined
	// from the share set once a commit fills it (Settle), or taken from a
	// released peer. It is shared, never written; nil until settled.
	Released []float64

	// The image the next sum commit writes into: the state the last
	// commit replaced, reused. Propose drops it.
	spare *homenc.Vector

	env    *Env
	index  int        // 0-based; the key-share index is index+1
	stream *randx.RNG // this participant's noise stream (NodeNoiseStream)
	noise  NoiseConfig
	relDim int   // how many values the elected vector releases
	relErr error // why a settled participant holds no release
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
// means contribution (the assignment step's output): it draws its
// noise-share vector (Definition 5) from its stream, adds it, packed and
// encoded, into the contribution, encrypts the sum once, and seeds the
// counter. The noise configuration must pack to the contribution's
// length. Participant 0 holds the epidemic weight 1 of the sum and the
// counter (Section 3.2, footnote 5). Packing, encryption and the update
// rule are linear, so the sum is Algorithm 3's M.s +h N.s exactly
// (DESIGN.md §1, "One encrypted sum").
func (p *Participant) Start(contribution []*big.Int) {
	codec := p.env.Pack.Codec
	shares := NoiseShareVector(p.stream, p.noise)
	noise := make([]*big.Int, len(shares))
	for j, x := range shares {
		noise[j] = codec.Encode(x)
	}
	folded := p.env.Pack.Pack(noise)
	if len(folded) != len(contribution) {
		panic("eesum: the noise-shares pack to another length than the contribution")
	}
	for j, c := range contribution {
		folded[j] = new(big.Int).Add(folded[j], c)
	}
	p.Means = p.encrypt(folded)
	p.CtrS, p.CtrW = 1, 0
	if p.index == 0 {
		p.CtrW = 1
	}
}

// encrypt builds an initial EESum state: epoch 0, weight 1 on
// participant 0 and 0 elsewhere. Each ciphertext goes from the scheme
// straight into the state's image, which has room for every element at
// the scheme's ciphertext width, so that once a commit replaces the
// state the image serves as a spare.
func (p *Participant) encrypt(vec []*big.Int) SumSide {
	sch := p.env.Scheme
	w := homenc.NewVectorWriter(len(vec), len(vec)*sch.CiphertextBytes())
	for _, v := range vec {
		w.Append(sch.Encrypt(v).V)
	}
	omega := big.NewInt(0)
	if p.index == 0 {
		omega = big.NewInt(1)
	}
	return SumSide{CTs: w.Vector(), Omega: omega}
}

// --- Sum phase (Algorithm 2 on the sum, push-pull on the counter) ---

// SumPeer is the other side of a sum exchange as it arrived: its EESum
// state, read where it is, and its counter.
type SumPeer struct {
	Means      SumOperand
	CtrS, CtrW float64
}

func (p *Participant) sumPeer() SumPeer {
	return SumPeer{Means: p.Means.Operand(), CtrS: p.CtrS, CtrW: p.CtrW}
}

// CommitSum applies this side's half of a sum exchange: Algorithm 2's
// update rule on the sum and the pairwise average on the counter. Both
// sides compute in (initiator, responder) order. The peer's state is
// only read — a driver passes it straight from the frame it arrived in —
// and the kernel writes the new state into this participant's spare
// image, which then swaps with the current one: past the first few
// commits, a commit allocates no image.
func (p *Participant) CommitSum(peer SumPeer, initiator bool) {
	a, b := p.sumPeer(), peer
	if !initiator {
		a, b = b, a
	}
	sch, w := p.env.Scheme, p.env.workers(a.Means.CTs.Len())
	p.swapIn(mergeSumInto(sch, p.sizedSpare(a.Means, b.Means), a.Means, b.Means, w))
	p.CtrS, p.CtrW = (a.CtrS+b.CtrS)/2, (a.CtrW+b.CtrW)/2
}

// spareImage returns the spare image, a new one when there is none yet.
func (p *Participant) spareImage() *homenc.Vector {
	if p.spare == nil {
		p.spare = new(homenc.Vector)
	}
	return p.spare
}

// sizedSpare is the spare image with room for the image of the state
// merged from a and b as it will be at the end of the sum, when the
// scheme's values widen as they merge (unbounded plaintexts, with
// Env.SumEpochs set): the spare then allocates once a sum instead of
// regrowing as its values widen.
func (p *Participant) sizedSpare(a, b SumOperand) *homenc.Vector {
	v := p.spareImage()
	if end := p.env.SumEpochs; end > 0 && p.env.Scheme.PlaintextSpace() == nil {
		v.Expect(eventualImage(a, b, end))
	}
	return v
}

// eventualImage is the image size a state merged from a and b can reach
// by epoch end. A merged value is at most one bit wider than the wider
// of its operands, the staler shifted to the fresher's epoch, and its
// epoch is the fresher's plus one: a value's width less its epoch never
// grows, so an operand at epoch e widens by at most a byte an element
// for every eight epochs it has to go.
func eventualImage(a, b SumOperand, end int) int {
	grown := func(o SumOperand) int {
		return o.CTs.Size() + o.CTs.Len()*((max(end-o.Epoch, 0)+7)/8)
	}
	return 4 + max(grown(a), grown(b))
}

// swapIn makes sum, written into the spare image, the participant's
// state, and the image of the state it replaces its spare.
func (p *Participant) swapIn(sum SumSide) {
	p.spare, p.Means = p.Means.CTs, sum
}

// ExchangeSum runs a whole sum exchange between initiator p and
// responder q in memory. The merge is computed once; q copies the result
// into its own spare image unless the exchange ends half-completed
// (!full: the responder dropped out, Section 6.1.5).
func (p *Participant) ExchangeSum(q *Participant, full bool) {
	p.CommitSum(q.sumPeer(), true)
	if full {
		sum := p.Means
		sum.CTs = q.spareImage().Set(sum.CTs)
		q.swapIn(sum)
		q.CtrS, q.CtrW = p.CtrS, p.CtrW
	}
}

// --- Election of the vector to decrypt (Section 4.2.2 and Algorithm 3,
// lines 6–7) ---

// Propose ends the participant's sum phase: it draws its surplus-
// correction proposal from its stream (CorrectionProposal, from the
// counter's estimate), subtracts it from its own sum, and stands for
// election with the result: the proposal's identifier, the perturbed
// means and their weight. Every participant does this work, as each did
// at the decryption boundary before; the dissemination then keeps the
// smallest identifier's vector, so one vector is decrypted and released.
// A participant resumed past this point draws too — the stream must
// advance — but keeps the vector it was restored with. The sum state
// stops changing here, so the spare image goes.
func (p *Participant) Propose() error {
	p.spare = nil
	est, ok := 0.0, p.CtrW > 0
	if ok {
		est = p.CtrS / p.CtrW
	}
	id, cor := CorrectionProposal(p.stream, p.noise, est, ok)
	if p.Vec != nil {
		return nil
	}
	perturbed, err := p.perturb(cor)
	if err != nil {
		return err
	}
	p.VecID, p.Vec, p.VecOmega = id, perturbed.CTs, perturbed.Omega
	return nil
}

// perturb subtracts the correction cor from the sum: the perturbed
// means, an image of their own. The correction is public and added
// without a randomizer; it reads the sum's image and writes the result
// into an image of its own. Packing is linear, so the packed negated
// correction subtracts exactly per slot.
func (p *Participant) perturb(cor []float64) (SumSide, error) {
	neg := make([]*big.Int, len(cor))
	for j, x := range cor {
		neg[j] = new(big.Int).Neg(p.env.Pack.Codec.Encode(x))
	}
	sum := p.Means.Operand()
	return AddEncryptedState(p.env.Scheme, sum, p.env.Pack.Pack(neg), p.env.workers(sum.CTs.Len()))
}

// CommitDiss is this side's min-identifier dissemination step: the
// vector with the smaller identifier wins, and is held as it is — a
// vector is immutable, so two participants may hold the same one.
func (p *Participant) CommitDiss(id uint64, vec *homenc.Vector, omega *big.Int) {
	if id < p.VecID {
		p.VecID, p.Vec, p.VecOmega = id, vec, omega
	}
}

// ExchangeDiss runs a whole dissemination exchange between initiator p
// and responder q in memory. The smaller identifier wins either way, so
// q may read p's state after p's commit.
func (p *Participant) ExchangeDiss(q *Participant, full bool) {
	p.CommitDiss(q.VecID, q.Vec, q.VecOmega)
	if full {
		q.CommitDiss(p.VecID, p.Vec, p.VecOmega)
	}
}

// StartDecryption is the boundary between the dissemination and the
// decryption: the decryption starts over the elected vector, which
// releases dim values, with no key-share gathered. A participant resumed
// past this boundary keeps the share set and the release it was
// restored with, and settles here if its set is full but its release
// was not recorded.
func (p *Participant) StartDecryption(dim int) {
	p.relDim = dim
	if p.DecParts != nil {
		p.Settle()
		return
	}
	p.DecParts = make([]Part, 0, p.env.Scheme.Threshold())
}

// ReleaseDim returns how many values the elected vector releases: the
// length of a release.
func (p *Participant) ReleaseDim() int { return p.relDim }

// --- Epidemic decryption (Section 4.2.3, over one elected vector) ---
//
// A share set is grow-only, capped at τ and merged by union: when two
// sides that elected the same vector and are not yet released meet,
// each takes the union of both sets, plus the key-shares applied for the
// exchange, keeping the lowest τ share indices. While the union of both
// sets is below τ, a side whose key-share neither set holds sends it
// along: it applies its key-share then, at most once an iteration, and
// keeps the result (Own) for every later peer that lacks it.
//
// A set filled to τ is combined and the release decoded right after the
// commit that fills it (Settle), and the participant is released:
// nothing of its decryption state changes again. From then on its legs name no entries and carry
// the release itself — a request only says that its sender is released
// — and a side not yet released takes a released peer's release as its
// own, without combining anything. That is the release spreading as a
// rumour: a side becomes released in exactly the exchange where the
// union of its set with a full one would have filled it, so the sides
// still gathering, their sets and their key-share applications are what
// they would be if every side combined for itself, and any τ key-shares
// of one vector decode to the same release. A leg naming another vector
// merges nothing — shares or releases over two vectors must never meet —
// so a participant that missed the elected vector ends the phase
// unsettled.
//
// Either side decides all of this from the two pre-exchange legs alone
// — the share indices they name and whether they are released — so each
// sends the other only what it lacks and will keep: a leg names the
// indices its sender holds and carries the partial decryptions of just
// those.

// Part is an entry of a share set: one key-share's partial decryptions
// of the elected vector, under the key-share's index.
type Part struct {
	Idx int
	V   *homenc.Vector
}

// partOf returns what a share set, ascending, holds under share index
// idx, or nil.
func partOf(set []Part, idx int) *homenc.Vector {
	if i, ok := slices.BinarySearchFunc(set, idx, func(e Part, idx int) int { return cmp.Compare(e.Idx, idx) }); ok {
		return set[i].V
	}
	return nil
}

// DecPeer is the other side's decryption leg as it arrived, in whatever
// form a driver holds it: a share set in memory, a scanned frame on the
// wire. It names the vector its sender decrypts and whether the sender
// is released; a leg of a sender that is not has entries in strictly
// ascending share index, each with or without the partial decryptions
// under it. The entries are read with a cursor: the first is at cursor
// 0, and Entry returns the next one's.
type DecPeer interface {
	// Elected returns the identifier of the vector the sender decrypts.
	Elected() uint64
	// Released reports whether the sender is released: its leg then
	// names no entries.
	Released() bool
	// Release returns the release the leg carries, which its receiver
	// may keep as it is: the leg's own values are not handed out. It is
	// nil on a leg that carries none.
	Release() []float64
	// Gathered returns how many entries the leg has.
	Gathered() int
	// Entry returns the share index of the entry at cursor c, whether
	// the entry carries its partial decryptions, and the cursor of the
	// next entry.
	Entry(c int) (idx int, carries bool, next int)
	// Part returns the partial decryptions the entry at cursor c
	// carries, independent of the leg.
	Part(c int) *homenc.Vector
}

// DecPrep is one side of a decryption exchange, planned from both sides'
// pre-exchange legs before either changes.
type DecPrep struct {
	// Send is what this side's leg carries to the peer: the entries of
	// its set that the peer lacks and will keep, ascending.
	Send []Part
	// OwnDue reports whether this side's key-share is due to the peer on
	// this side's leg (Fresh).
	OwnDue bool
	// PeerSends reports whether the peer's key-share is due to this side
	// on the peer's leg.
	PeerSends bool
	// SendsRelease reports whether this side is released: its response
	// or fin carries its release and nothing else, whatever the peer
	// holds.
	SendsRelease bool

	takes     bool // the peer is released over the same vector: this side takes its release
	peerShare int
	keys      []int // the share set after the commit, ascending; nil: unchanged
	owed      int   // how many partial decryptions the peer's leg owes this side
}

// PrepareDec plans participant p's side of a decryption exchange with
// the peer whose leg names its share set — or says it is released — and
// who holds key-share peerShare: whether p takes the peer's release,
// whether each side's key-share is due to the other, the set p commits
// to, the entries p's leg owes the peer and how many the peer's leg owes
// p. Both sides plan the same union from the same two index lists, so
// what one sends is what the other takes. It reads only the
// pre-exchange legs — the peer's need carry no part — so an exchange
// that ends half-completed leaves the committing side as a full one
// does; and it applies nothing (Fresh does). It is generic rather than a
// method taking the interface so that a driver's peer — a scanned frame
// on every exchange leg — is not boxed onto the heap.
func PrepareDec[P DecPeer](p *Participant, peer P, peerShare int) DecPrep {
	x := DecPrep{peerShare: peerShare, SendsRelease: p.Settled()}
	if x.SendsRelease || p.DecParts == nil || peer.Elected() != p.VecID {
		return x // released, or another vector: p takes nothing and owes nothing
	}
	if peer.Released() {
		x.takes = true
		return x
	}
	tau := p.env.Scheme.Threshold()
	var buf [2]int
	fresh := buf[:0] // the indices of the key-shares applied for the exchange
	if u := decUnion(p, peer, peerShare); u.size < tau {
		x.PeerSends = partOf(p.DecParts, peerShare) == nil && !u.peerHasTheirs
		x.OwnDue = partOf(p.DecParts, p.share()) == nil && !u.peerHasOwn
	}
	if x.OwnDue {
		fresh = append(fresh, p.share())
	}
	if x.PeerSends {
		fresh = append(fresh, peerShare)
	}
	slices.Sort(fresh)
	x.keys = make([]int, 0, min(tau, len(p.DecParts)+peer.Gathered()+len(fresh)))
	// Walk the union of both sets and the fresh shares up to its τ-th
	// smallest index: that much is what both sides keep.
	mine, left := p.DecParts, peer.Gathered()
	var theirs, c, next int
	if left > 0 {
		theirs, _, next = peer.Entry(0)
	}
	for len(x.keys) < tau {
		idx := math.MaxInt
		if len(mine) > 0 {
			idx = mine[0].Idx
		}
		if left > 0 {
			idx = min(idx, theirs)
		}
		if len(fresh) > 0 {
			idx = min(idx, fresh[0])
		}
		if idx == math.MaxInt {
			break
		}
		inMine, inPeer := len(mine) > 0 && mine[0].Idx == idx, left > 0 && theirs == idx
		switch {
		case inMine && !inPeer:
			if x.Send == nil {
				x.Send = make([]Part, 0, tau-len(x.keys))
			}
			x.Send = append(x.Send, mine[0])
		case inPeer && !inMine:
			x.owed++
		}
		x.keys = append(x.keys, idx)
		if inMine {
			mine = mine[1:]
		}
		if inPeer {
			if c, left = next, left-1; left > 0 {
				theirs, _, next = peer.Entry(c)
			}
		}
		if len(fresh) > 0 && fresh[0] == idx {
			fresh = fresh[1:]
		}
	}
	return x
}

// setUnion describes the union of two sides' share sets.
type setUnion struct {
	size          int
	peerHasOwn    bool // the peer's set holds this side's key-share
	peerHasTheirs bool // the peer's set holds the peer's own key-share
}

// decUnion returns the union of p's share set and the one the peer's leg
// names.
func decUnion[P DecPeer](p *Participant, peer P, peerShare int) setUnion {
	u := setUnion{size: len(p.DecParts)}
	for c, i := 0, 0; i < peer.Gathered(); i++ {
		idx, _, next := peer.Entry(c)
		c = next
		if partOf(p.DecParts, idx) == nil {
			u.size++
		}
		u.peerHasOwn = u.peerHasOwn || idx == p.share()
		u.peerHasTheirs = u.peerHasTheirs || idx == peerShare
	}
	return u
}

// CarriesOwed reports whether the peer's leg carries exactly the partial
// decryptions it owes p: one for each share index p will keep that only
// the peer's set holds, and no other — none p holds, none outside the
// lowest τ p keeps, none under a key-share that travels fresh, none at
// all when either side is released. Entries carrying nothing are not
// looked at.
func CarriesOwed[P DecPeer](p *Participant, x DecPrep, leg P) bool {
	carried := 0
	for c, i := 0, 0; i < leg.Gathered(); i++ {
		idx, carries, next := leg.Entry(c)
		c = next
		if !carries {
			continue
		}
		if _, kept := slices.BinarySearch(x.keys, idx); !kept || partOf(p.DecParts, idx) != nil ||
			(x.OwnDue && idx == p.share()) || (x.PeerSends && idx == x.peerShare) {
			return false
		}
		carried++
	}
	return carried == x.owed
}

// Fresh returns p's key-share for the peer when x owes the peer one,
// applying it the first time it is due (at most once an iteration), and
// nil otherwise: what p's response or fin carries.
func (p *Participant) Fresh(x DecPrep) *homenc.Vector {
	if !x.OwnDue {
		return nil
	}
	return p.keyShare()
}

// CommitDec applies p's transition — the commit point, applied exactly
// once. A side taking a released peer's release keeps the one the
// peer's leg carries. Otherwise the share set becomes the planned union,
// whose new entries come from the peer's leg (CarriesOwed vetted it) and
// from the two fresh key-shares. A union that fills the set leaves p to
// Settle, which combines and decodes the release: the caller settles p
// before anything reads its state again, and an initiator sends its fin
// first, so that its peer does not wait on the combine. fresh is the
// peer's key-share as it arrived (nil: none).
func CommitDec[P DecPeer](p *Participant, x DecPrep, leg P, fresh *homenc.Vector) {
	if x.takes {
		p.take(leg.Release())
		return
	}
	if x.keys == nil {
		return
	}
	parts := make([]Part, 0, len(x.keys))
	c, left := 0, leg.Gathered()
	for _, idx := range x.keys {
		v := partOf(p.DecParts, idx)
		switch {
		case v != nil:
		case x.OwnDue && idx == p.share():
			v = p.keyShare()
		case x.PeerSends && idx == x.peerShare:
			v = fresh
		default:
			// Owed on the leg, whose entries ascend as the keys do.
			for ; left > 0; left-- {
				e, _, next := leg.Entry(c)
				if e > idx {
					break
				}
				if e == idx {
					v = leg.Part(c)
				}
				c = next
			}
		}
		if v != nil {
			parts = append(parts, Part{idx, v})
		}
	}
	p.DecParts = parts
}

// ExchangeDec runs a whole decryption exchange between initiator p and
// responder q in memory, as the wire legs do: both sides plan against
// the other's pre-exchange leg and apply the key-shares due, then p
// commits what q's leg sends, and q what p's does unless the exchange
// ends half-completed.
func (p *Participant) ExchangeDec(q *Participant, full bool) {
	xp, xq := PrepareDec(p, q.request(), q.share()), PrepareDec(q, p.request(), p.share())
	fp, fq := p.Fresh(xp), q.Fresh(xq)
	CommitDec(p, xp, q.answer(xq), fq)
	if full {
		CommitDec(q, xq, p.answer(xp), fp)
	}
	p.Settle()
	q.Settle()
}

// request is p's leg as a request names it: its share set, or only that
// p is released.
func (p *Participant) request() memLeg {
	if p.Settled() {
		return memLeg{id: p.VecID, released: true}
	}
	return memLeg{id: p.VecID, parts: p.DecParts}
}

// answer is p's response or fin under its plan x: its release when it is
// released, else the entries x sends. A released side's commit changes
// nothing, so the answer reads the same after it.
func (p *Participant) answer(x DecPrep) memLeg {
	if x.SendsRelease {
		return memLeg{id: p.VecID, released: true, release: p.Released}
	}
	return memLeg{id: p.VecID, parts: x.Send}
}

// memLeg is a side's leg in an in-memory exchange: its share set or the
// entries it sends, or its release.
type memLeg struct {
	id       uint64
	parts    []Part
	released bool
	release  []float64
}

func (m memLeg) Elected() uint64              { return m.id }
func (m memLeg) Released() bool               { return m.released }
func (m memLeg) Release() []float64           { return m.release }
func (m memLeg) Gathered() int                { return len(m.parts) }
func (m memLeg) Entry(c int) (int, bool, int) { return m.parts[c].Idx, true, c + 1 }
func (m memLeg) Part(c int) *homenc.Vector    { return m.parts[c].V }

// keyShare returns this participant's key-share over the elected
// vector, applying it the first time it is due: read from the vector's
// image, written as the image it is sent and journaled as. A failure
// cannot happen for a provisioned share index; it would just leave the
// share unapplied.
func (p *Participant) keyShare() *homenc.Vector {
	if p.Own == nil {
		cts := p.Vec.Operand()
		p.Own, _ = partials(p.env.Scheme, p.share(), cts, p.env.workers(cts.Len()))
	}
	return p.Own
}

// Applications returns how many times the participant applied its
// key-share this iteration: 0 or 1.
func (p *Participant) Applications() int {
	if p.Own == nil {
		return 0
	}
	return 1
}

// Settled reports whether the decryption state can no longer change:
// the participant is released (or its release failed to decode). A
// settled side takes nothing and owes no peer anything, so PrepareDec
// and CommitDec become pure reads, and its remaining exchanges commute
// with one another.
func (p *Participant) Settled() bool { return p.Released != nil || p.relErr != nil }

// errNoRelease: a released peer held no release, its own decode having
// failed.
var errNoRelease = errors.New("eesum: the released peer's decode failed")

// Settle releases p once its share set is full and it is not settled
// yet, and does nothing otherwise: it combines the set into the
// plaintexts of the elected vector and decodes the relDim released
// values with its weight, reading the vector and the τ lowest
// key-shares — the whole set — from their images. A decode that fails
// settles p with the error. A settled state is never written again.
func (p *Participant) Settle() {
	if p.Settled() || len(p.DecParts) == 0 {
		return
	}
	sch := p.env.Scheme
	tau := sch.Threshold()
	if len(p.DecParts) < tau {
		return
	}
	shares, parts := make([]int, tau), make([]homenc.Operand, tau)
	for k, e := range p.DecParts[:tau] {
		shares[k], parts[k] = e.Idx, e.V.Operand()
	}
	cts := p.Vec.Operand()
	ms, err := combine(sch, cts, shares, parts, p.env.workers(cts.Len()))
	if err == nil {
		p.Released, err = DecodePackedState(sch, p.env.Pack, ms, p.VecOmega, p.relDim)
	}
	p.relErr = err
}

// take makes a released peer's release p's own; nil is a peer whose
// decode failed.
func (p *Participant) take(rel []float64) {
	if rel == nil {
		p.relErr = errNoRelease
		return
	}
	p.Released = rel
}

// Release returns the release: the relDim decoded values of the elected
// vector, shared with every participant holding it — the caller must not
// write them. It fails before the participant is settled, and with the
// decode's error when that failed.
func (p *Participant) Release() ([]float64, error) {
	if !p.Settled() {
		return nil, errIncomplete
	}
	return p.Released, p.relErr
}
