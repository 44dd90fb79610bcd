package node

import (
	"errors"
	"math/big"
	"net"
	"time"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/wireproto"
)

// iterState is the participant's live protocol state for one iteration:
// the two lockstep EESum states, the cleartext counter, the correction
// proposal, and the decryption state. It is unlocked, under one of two
// regimes. While an exchange can still change it, only the exchange the
// main loop is currently processing touches it. Once the decryption
// state is settled (see settled) nothing writes to it until the phase
// ends: the main loop seals it and publishes it through the registry,
// and from then on the main loop's initiator slots and the passively
// served responder slots read it concurrently. Journal checkpoints,
// which lazily cache the sum states' wire images, are serialized by
// Node.commitMu.
type iterState struct {
	means sumSide
	noise sumSide
	ctrS  float64
	ctrW  float64

	corID  uint64
	corVec []float64

	decCTs   *homenc.Vector
	decOmega *big.Int
	decParts map[int]*homenc.Partials
}

// sumSide is an EESum state plus the wire image of its ciphertext
// vector, so a state journaled at its commit and sent on the next
// exchange — or checkpointed unchanged all through the later phases —
// is encoded once. The state is replaced wholesale, never modified in
// place: a new sumSide starts without an image.
type sumSide struct {
	eesum.SumState
	vec *homenc.Vector // wraps SumState.CTs; nil until first sent or journaled
}

func (s *sumSide) wire() wireproto.SumSide {
	if s.vec == nil {
		s.vec = homenc.NewVector(s.CTs)
	}
	return wireproto.SumSide{CTs: s.vec, Omega: s.Omega, Epoch: s.Epoch}
}

// sumOut is the iteration's sum-phase state as an exchange leg (or a
// journal checkpoint, with a zero header) sends it.
func (st *iterState) sumOut(hdr wireproto.ExchangeHdr) *wireproto.SumOut {
	return &wireproto.SumOut{Hdr: hdr, Means: st.means.wire(), Noise: st.noise.wire(), CtrSigma: st.ctrS, CtrOmega: st.ctrW}
}

// decOut is the iteration's decryption state in sending form.
func (st *iterState) decOut(hdr wireproto.ExchangeHdr, fresh *homenc.Partials) *wireproto.DecMsg {
	return &wireproto.DecMsg{Hdr: hdr, CTs: st.decCTs, Omega: st.decOmega, Parts: st.decParts, Fresh: fresh}
}

// settled reports whether the decryption state can no longer change: τ
// key-shares are gathered. wireproto.Limits.MaxParts caps every peer's
// part set at τ, so such a state never adopts (no peer is more
// advanced), never wants a share (DecNeeds is false at τ) and owes no
// peer a fresh one it would have to compute from anything but itself —
// prepareDec and commitDec become pure reads, and every remaining
// exchange commutes with every other on this side.
func (st *iterState) settled(tau int) bool { return len(st.decParts) >= tau }

// seal builds both forms of every vector of the decryption state, so
// that sending it (the image) and combining it (the values) are reads
// from here on: a settled state is shared between goroutines.
func (st *iterState) seal() {
	st.decCTs.Seal()
	//lint:orderfree every part is sealed; order is not protocol state
	for _, ps := range st.decParts {
		ps.Seal()
	}
}

// hdrFor stamps an exchange header for a scheduled slot.
func (nd *Node) hdrFor(s slot, to int) wireproto.ExchangeHdr {
	return wireproto.ExchangeHdr{
		Iter:  uint32(s.iter),
		Cycle: uint32(s.cycle),
		Seq:   uint32(s.seq),
		From:  uint32(nd.cfg.Index),
		To:    uint32(to),
	}
}

// tryOutcome classifies one attempt at an exchange slot. The taxonomy
// is what makes retries safe: only tryRetry — a failure strictly before
// this side's state merge — may run the attempt again. Once a side has
// merged (tryCommitted) its half is applied exactly once, so a chaos
// run with the same completed-exchange trace stays bit-identical to the
// simulator.
type tryOutcome int

const (
	// tryCommitted: this side's merge was applied. Terminal; the slot
	// is never re-attempted, whatever happens to the commit leg after.
	tryCommitted tryOutcome = iota
	// tryRetry: a transient connection failure strictly before this
	// side's merge (dial, request write, response read, fin loss). No
	// state changed, so the identical attempt may run again.
	tryRetry
	// tryReject: the peer sent invalid protocol data. Terminal —
	// retrying a hostile peer re-downloads the same garbage.
	tryReject
	// tryAbandon: terminal without a usable connection (no address for
	// the peer). Counts as a timeout, is never retried.
	tryAbandon
	// tryHalf: the slot deliberately ends half-completed — a crash-hook
	// firing on this side's send, or modeled churn's abort flag. No
	// counter: this is the paper's Section 6.1.5 outcome, not an error.
	tryHalf
	// tryFinLost (responder only): the commit leg never arrived. Almost
	// always the initiator committed and died (or its fin was cut) — a
	// half-completed exchange — but it may also have failed reading the
	// response pre-merge, in which case its redial is already in
	// flight. The responder re-awaits only a short, backoff-sized
	// window instead of the slot's full deadline.
	tryFinLost
)

// crashes consults the crash hook for one of this node's send legs.
func (nd *Node) crashes(leg int, s slot) bool {
	return nd.crashHook != nil && nd.crashHook(leg, s.phase, s.iter, s.cycle, s.seq)
}

// initiateWith drives one initiator slot under the fault policy: run
// attempts until one commits, a terminal outcome lands, or the retry
// budget is spent, backing off between attempts with capped jitter.
// Suspicion strikes are charged to the peer on terminal failures and
// cleared on commit.
func (nd *Node) initiateWith(peer int, s slot, try func() tryOutcome) {
	for attempt := 0; ; attempt++ {
		switch try() {
		case tryCommitted:
			nd.peerOK(peer)
			return
		case tryReject:
			nd.counters.Rejected.Add(1)
			nd.peerFailed(peer, s)
			return
		case tryAbandon:
			nd.counters.Timeouts.Add(1)
			nd.peerFailed(peer, s)
			return
		case tryHalf:
			return
		case tryRetry:
			if attempt >= nd.policy.MaxRetries {
				nd.counters.Timeouts.Add(1)
				nd.peerFailed(peer, s)
				return
			}
			nd.counters.Retries.Add(1)
			if !nd.sleep(backoffDelay(nd.jitter, nd.policy.Backoff, attempt, 8*nd.policy.Backoff)) {
				return // shutting down
			}
		}
	}
}

// respondWith drives one responder slot in slot order: await the
// request, serve it, and — when a pre-commit connection failure suggests
// the initiator failed before its own merge and will redial — re-await
// the slot within its absolute deadline. The serve callback commits at
// most once; every re-served attempt starts from the same untouched
// state, so the response bytes are identical across attempts. from is
// the scheduled initiator: when it is known-unreachable (crash-suspected
// or departed) the wait is cut short instead of burning the deadline —
// under a restart storm those abandoned waits, 50 slots × the full
// exchange timeout per storm, were the collapse from 227 to 1.45
// cycles/s the crash-storm soak measured.
func (nd *Node) respondWith(s slot, from int, serve func(in *inbound) tryOutcome) {
	defer nd.reg.release(s)
	deadline := time.Now().Add(nd.cfg.ExchangeTimeout)
	wait := nd.cfg.ExchangeTimeout
	for attempt := 0; ; attempt++ {
		in, ok := nd.awaitSlot(s, from, minDur(wait, time.Until(deadline)))
		if !ok {
			nd.counters.Timeouts.Add(1)
			return
		}
		out := serve(&in)
		_ = in.conn.Close()
		in.frame.Release()
		if !nd.bookResponse(out, attempt, deadline) {
			return
		}
		wait = nd.redialWindow(out)
	}
}

// bookResponse counts one served attempt of a responder slot and
// reports whether the slot stays open for the initiator's redial: only
// after a failure strictly before this side's merge, within the retry
// budget and the slot's deadline (zero: none yet). Every other outcome
// closes the slot.
func (nd *Node) bookResponse(out tryOutcome, attempt int, deadline time.Time) bool {
	switch out {
	case tryReject:
		nd.counters.Rejected.Add(1)
	case tryAbandon:
		nd.counters.Timeouts.Add(1)
	case tryRetry, tryFinLost:
		if attempt >= nd.policy.MaxRetries || (!deadline.IsZero() && !time.Now().Before(deadline)) {
			nd.counters.Timeouts.Add(1)
			return false
		}
		nd.counters.Retries.Add(1)
		return true
	}
	return false
}

// redialWindow is how long a responder slot waits for the redial after
// an attempt that bookResponse kept open. After a lost fin it waits only
// for a redial already in flight: one backoff envelope, not the slot's
// whole deadline — the far more likely reading of a lost fin is an
// initiator that committed and died, and nobody redials a committed
// slot.
func (nd *Node) redialWindow(out tryOutcome) time.Duration {
	if out == tryFinLost {
		return 8*nd.policy.Backoff + 250*time.Millisecond
	}
	return nd.cfg.ExchangeTimeout
}

// servePassive serves a claimed tail slot on the goroutine that
// delivered its request (or, for requests parked before the node
// settled, on the main loop as it settles): the same serve, the same
// bookkeeping and the same redial rules as respondWith, minus the wait
// for the slot's turn. The loop only continues with a redial that
// parked while the previous attempt was still running.
func (nd *Node) servePassive(t *tailSlot, in inbound) {
	for {
		out := nd.serveDec(t.st, t.s, t.from, &in)
		_ = in.conn.Close()
		in.frame.Release()
		reopen := nd.bookResponse(out, t.attempts, nd.reg.tailDeadline(t))
		var ok bool
		if in, ok = nd.reg.finish(t, reopen, nd.redialWindow(out)); !ok {
			return
		}
	}
}

// awaitTail is the one wait at the end of a settled tail: the main loop
// has walked its initiator slots and now waits, against a single
// deadline, for whatever responder slots are still open. A slot whose
// initiator never shows up costs one Timeouts count, as in slot order,
// but the waits overlap instead of adding up; one whose initiator is
// known to be unreachable is released as soon as that is known. progress
// is called each time the wait has moved past a slot.
func (nd *Node) awaitTail(tails []*tailSlot, progress func()) {
	nd.reg.armTail(time.Now().Add(nd.cfg.ExchangeTimeout))
	for _, t := range tails {
		status := tailPending
		for status == tailPending && !nd.stopped.Load() {
			status = nd.reg.waitTail(t, suspicionPoll)
			if status == tailPending && nd.peerUnreachable(t.from) && nd.reg.expireTail(t) {
				status = tailExpired
			}
		}
		if status == tailExpired {
			nd.counters.Timeouts.Add(1)
		}
		progress()
	}
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// suspicionPoll is how often a waiting responder re-checks whether the
// initiator it awaits became unreachable.
const suspicionPoll = 250 * time.Millisecond

// awaitSlot is registry.await sliced into short waits so the responder
// can release a slot early once its scheduled initiator is known to be
// unreachable. The early exit still performs one final zero-timeout
// poll — a request parked in the race window is served, and the caller
// counts exactly one timeout either way, keeping counter totals
// identical to a full-deadline wait. The check only ever fires for
// peers the suspicion policy evicted or the book marked gone, so runs
// without suspicion (every deterministic replay test) behave exactly as
// before.
func (nd *Node) awaitSlot(s slot, from int, timeout time.Duration) (inbound, bool) {
	deadline := time.Now().Add(timeout)
	for {
		slice := minDur(suspicionPoll, time.Until(deadline))
		if slice <= 0 {
			return nd.reg.await(s, 0)
		}
		if in, ok := nd.reg.await(s, slice); ok {
			return in, true
		}
		if nd.stopped.Load() {
			return inbound{}, false
		}
		if nd.peerUnreachable(from) {
			return nd.reg.await(s, 0)
		}
	}
}

// dialOutcome classifies a dial error for the retry loop.
func dialOutcome(err error) tryOutcome {
	if errors.Is(err, errNoAddress) {
		return tryAbandon // fast-fail: retrying cannot conjure an address
	}
	return tryRetry
}

// sendFin emits the commit leg unless the crash hook kills the exchange
// here. Modeled mid-exchange churn (full=false in the schedule) sends
// an explicit abort so the responder resolves instantly; the slow path
// — saying nothing and letting the responder's fin timeout fire — is
// what a genuine crash produces, with the identical half-completed
// outcome.
func (nd *Node) sendFin(conn net.Conn, kind byte, hdr wireproto.ExchangeHdr, s slot, full bool, msg func(wireproto.ExchangeHdr) wireproto.Message) {
	if nd.crashes(LegFin, s) {
		return // simulated crash between the merge and FIN
	}
	if !full {
		hdr.Flags |= wireproto.FlagAbort
	}
	_ = nd.writeMsg(conn, kind, -1, msg(hdr))
}

// bareFin is the payload of a sum or dissemination commit leg.
func bareFin(h wireproto.ExchangeHdr) wireproto.Message { return wireproto.Fin{Hdr: h} }

// --- sum phase (encrypted means + noise lockstep + counter) ---

func (nd *Node) initiateSum(st *iterState, peer int, s slot, full bool) {
	nd.initiateWith(peer, s, func() tryOutcome {
		conn, err := nd.dial(peer)
		if err != nil {
			return dialOutcome(err)
		}
		defer conn.Close()
		if nd.crashes(LegReq, s) {
			return tryHalf
		}
		hdr := nd.hdrFor(s, peer)
		// Request legs carry the destination index so a multiplexed
		// listener can route them; later legs ride the routed connection.
		if err := nd.writeMsg(conn, wireproto.KindSumReq, peer, st.sumOut(hdr)); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		defer f.Release()
		if err != nil || f.Kind != wireproto.KindSumResp {
			return tryRetry
		}
		resp, err := wireproto.ScanSum(f.Payload, nd.lim)
		if err != nil || !nd.validSumState(resp.Means, len(st.means.CTs)) || !nd.validSumState(resp.Noise, len(st.noise.CTs)) {
			return tryReject
		}
		// Initiator half: the commit point. Applied exactly once — no
		// failure after this line is ever retried (the sim's
		// Exchange(a, b, *) a-side).
		st.means = sumSide{SumState: eesum.MergeSum(nd.cfg.Scheme, st.means.SumState, resp.Means.State(), nd.dimWk)}
		st.noise = sumSide{SumState: eesum.MergeSum(nd.cfg.Scheme, st.noise.SumState, resp.Noise.State(), nd.dimWk)}
		st.ctrS, st.ctrW = (st.ctrS+resp.CtrSigma)/2, (st.ctrW+resp.CtrOmega)/2
		nd.commit(s, st, true)
		nd.sendFin(conn, wireproto.KindSumFin, hdr, s, full, bareFin)
		return tryCommitted
	})
}

func (nd *Node) respondSum(st *iterState, s slot, from int) {
	nd.respondWith(s, from, func(in *inbound) tryOutcome {
		req, err := wireproto.ScanSum(in.frame.Payload, nd.lim)
		if err != nil || int(req.Hdr.From) != from ||
			!nd.validSumState(req.Means, len(st.means.CTs)) || !nd.validSumState(req.Noise, len(st.noise.CTs)) {
			return tryReject
		}
		if nd.crashes(LegResp, s) {
			return tryHalf
		}
		if err := nd.writeMsg(in.conn, wireproto.KindSumResp, -1, st.sumOut(req.Hdr)); err != nil {
			return tryRetry
		}
		fin, out := nd.awaitFin(in.conn, wireproto.KindSumFin)
		if out != tryCommitted {
			return out
		}
		if fin.Flags&wireproto.FlagAbort != 0 {
			return tryHalf // modeled mid-exchange churn
		}
		// Responder half (the sim's Exchange b-side under full=true); the
		// merge arguments keep (initiator, responder) order on both sides.
		st.means = sumSide{SumState: eesum.MergeSum(nd.cfg.Scheme, req.Means.State(), st.means.SumState, nd.dimWk)}
		st.noise = sumSide{SumState: eesum.MergeSum(nd.cfg.Scheme, req.Noise.State(), st.noise.SumState, nd.dimWk)}
		st.ctrS, st.ctrW = (req.CtrSigma+st.ctrS)/2, (req.CtrOmega+st.ctrW)/2
		nd.commit(s, st, false)
		return tryCommitted
	})
}

// awaitFin reads the commit leg with the fin deadline. A clean read
// returns tryCommitted; a lost or mistyped fin returns tryFinLost; a
// fin that arrived but does not decode is a tryReject.
func (nd *Node) awaitFin(conn net.Conn, wantKind byte) (wireproto.ExchangeHdr, tryOutcome) {
	_ = conn.SetReadDeadline(time.Now().Add(nd.cfg.FinTimeout))
	f, err := nd.readFrame(conn)
	defer f.Release()
	if err != nil || f.Kind != wantKind {
		return wireproto.ExchangeHdr{}, tryFinLost
	}
	hdr, err := wireproto.PeekHdr(f.Payload)
	if err != nil {
		return wireproto.ExchangeHdr{}, tryReject
	}
	return hdr, tryCommitted
}

// --- correction dissemination phase ---

func (nd *Node) initiateDiss(st *iterState, peer int, s slot, full bool) {
	nd.initiateWith(peer, s, func() tryOutcome {
		conn, err := nd.dial(peer)
		if err != nil {
			return dialOutcome(err)
		}
		defer conn.Close()
		if nd.crashes(LegReq, s) {
			return tryHalf
		}
		hdr := nd.hdrFor(s, peer)
		req := wireproto.DissMsg{Hdr: hdr, ID: st.corID, Vec: st.corVec}
		if err := nd.writeMsg(conn, wireproto.KindDissReq, peer, &req); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		defer f.Release()
		if err != nil || f.Kind != wireproto.KindDissResp {
			return tryRetry
		}
		resp, err := wireproto.UnmarshalDiss(f.Payload, nd.lim)
		if err != nil || len(resp.Vec) != len(st.corVec) {
			return tryReject
		}
		// Commit point.
		if resp.ID < st.corID {
			st.corID, st.corVec = resp.ID, resp.Vec
		}
		nd.commit(s, st, true)
		nd.sendFin(conn, wireproto.KindDissFin, hdr, s, full, bareFin)
		return tryCommitted
	})
}

func (nd *Node) respondDiss(st *iterState, s slot, from int) {
	nd.respondWith(s, from, func(in *inbound) tryOutcome {
		req, err := wireproto.UnmarshalDiss(in.frame.Payload, nd.lim)
		if err != nil || int(req.Hdr.From) != from || len(req.Vec) != len(st.corVec) {
			return tryReject
		}
		if nd.crashes(LegResp, s) {
			return tryHalf
		}
		resp := wireproto.DissMsg{Hdr: req.Hdr, ID: st.corID, Vec: st.corVec}
		if err := nd.writeMsg(in.conn, wireproto.KindDissResp, -1, &resp); err != nil {
			return tryRetry
		}
		fin, out := nd.awaitFin(in.conn, wireproto.KindDissFin)
		if out != tryCommitted {
			return out
		}
		if fin.Flags&wireproto.FlagAbort != 0 {
			return tryHalf
		}
		if req.ID < st.corID {
			st.corID, st.corVec = req.ID, req.Vec
		}
		nd.commit(s, st, false)
		return tryCommitted
	})
}

// --- epidemic decryption phase ---

// ownShare applies this node's key-share to a ciphertext vector. A
// failure cannot happen (share indices are validated at construction)
// and, as in the simulator, just leaves the share unapplied.
func (nd *Node) ownShare(cts []homenc.Ciphertext) *homenc.Partials {
	ps, err := eesum.DecPartials(nd.cfg.Scheme, nd.share, cts, nd.dimWk)
	if err != nil {
		return nil
	}
	return homenc.NewPartials(ps)
}

// adoptDec replaces this side's decryption state with the peer's,
// detaching it from the frame it arrived in: the adopted vectors keep
// the images they came with. cts is the peer's ciphertext vector,
// already detached.
func adoptDec(st *iterState, peer wireproto.DecView, cts *homenc.Vector, tau int) {
	st.decCTs, st.decOmega = cts, peer.Omega()
	st.decParts = make(map[int]*homenc.Partials, tau)
	//lint:orderfree whole-map conversion of the already-capped copy: every entry lands regardless of order
	for idx, ps := range eesum.CopyParts(peer.Parts, tau) {
		st.decParts[idx] = ps.Copy()
	}
}

// decExchange is the part of a decryption exchange both roles share,
// with this node as "me" and the other side as "peer" (the sim's
// Exchange(a, b, full) seen from either end). Adoption decisions depend
// only on pre-exchange states, and after an adoption both sides hold
// the same ciphertext vector, so this node's key-share is applied to it
// once and serves both the peer (fresh) and this side's own state.
type decExchange struct {
	peer       wireproto.DecView
	iAdopt     bool           // this side adopts the peer's state
	peerAdopts bool           // the peer adopts this side's state
	adopted    *homenc.Vector // the peer's ciphertexts, detached (only when iAdopt)
	fresh      *homenc.Partials
}

// prepareDec computes, before anything is mutated, this node's
// key-share over the peer's post-adoption ciphertexts — the payload of
// the response or fin leg — if the peer's post-adoption state wants it.
// An initiator whose exchange is scheduled to end half-completed
// (!full) sends the peer nothing and computes nothing for it.
func (nd *Node) prepareDec(st *iterState, peer wireproto.DecView, full bool) decExchange {
	tau := nd.cfg.Scheme.Threshold()
	x := decExchange{
		peer:       peer,
		iAdopt:     eesum.DecAdopts(len(st.decParts), len(peer.Parts)),
		peerAdopts: eesum.DecAdopts(len(peer.Parts), len(st.decParts)),
	}
	if x.iAdopt {
		x.adopted = peer.CTs.Copy()
	}
	switch {
	case !full:
	case x.peerAdopts:
		if eesum.DecNeeds(st.decParts, tau, nd.share) {
			x.fresh = nd.ownShare(st.decCTs.Values())
		}
	case !eesum.DecNeeds(peer.Parts, tau, nd.share):
	case x.iAdopt:
		x.fresh = nd.ownShare(x.adopted.Values())
	default:
		x.fresh = nd.ownShare(peer.CTs.Values())
	}
	return x
}

// commitDec applies this side's transition (the sim's adopt, apply(me,
// peer), apply(me, me)): the commit point, applied exactly once.
// peerFresh is the peer's key-share over this side's post-adoption
// ciphertexts, as it arrived on the response or fin leg.
func (nd *Node) commitDec(st *iterState, x decExchange, peerShare int, peerFresh homenc.PartialsView) {
	tau := nd.cfg.Scheme.Threshold()
	if x.iAdopt {
		adoptDec(st, x.peer, x.adopted, tau)
	}
	if peerFresh.Len() > 0 && eesum.DecNeeds(st.decParts, tau, peerShare) {
		if validPartials(peerFresh, peerShare, st.decCTs.Len()) {
			st.decParts[peerShare] = peerFresh.Copy()
		} else {
			nd.counters.Rejected.Add(1)
		}
	}
	if eesum.DecNeeds(st.decParts, tau, nd.share) {
		own := x.fresh
		if own == nil || !(x.iAdopt || x.peerAdopts) {
			own = nd.ownShare(st.decCTs.Values())
		}
		if own != nil {
			st.decParts[nd.share] = own
		}
	}
}

func (nd *Node) initiateDec(st *iterState, peer int, s slot, full bool) {
	nd.initiateWith(peer, s, func() tryOutcome {
		conn, err := nd.dial(peer)
		if err != nil {
			return dialOutcome(err)
		}
		defer conn.Close()
		if nd.crashes(LegReq, s) {
			return tryHalf
		}
		hdr := nd.hdrFor(s, peer)
		if err := nd.writeMsg(conn, wireproto.KindDecReq, peer, st.decOut(hdr, nil)); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		defer f.Release()
		if err != nil || f.Kind != wireproto.KindDecResp {
			return tryRetry
		}
		resp, err := wireproto.ScanDec(f.Payload, nd.lim)
		if err != nil || !validDecState(resp, st.decCTs.Len(), nd.cfg.Scheme.NumShares()) {
			return tryReject
		}
		// The fin leg carries this side's key-share over the responder's
		// post-adoption ciphertexts (the sim's apply(b, a)); a
		// half-completed exchange sends none.
		x := nd.prepareDec(st, resp, full)
		nd.commitDec(st, x, peer+1, resp.Fresh)
		nd.commit(s, st, true)

		nd.sendFin(conn, wireproto.KindDecFin, hdr, s, full, func(h wireproto.ExchangeHdr) wireproto.Message {
			return &wireproto.DecMsg{Hdr: h, Fresh: x.fresh}
		})
		return tryCommitted
	})
}

func (nd *Node) respondDec(st *iterState, s slot, from int) {
	nd.respondWith(s, from, func(in *inbound) tryOutcome { return nd.serveDec(st, s, from, in) })
}

// serveDec serves one attempt at a decryption responder slot. It is the
// one responder half of the phase: run by the main loop in slot order
// while st can still change, and by whichever goroutine delivered the
// request once st is settled — when prepareDec and commitDec find
// nothing to compute or change, and all that remains of the exchange is
// the same validation, the same three legs and the same commit record.
func (nd *Node) serveDec(st *iterState, s slot, from int, in *inbound) tryOutcome {
	req, err := wireproto.ScanDec(in.frame.Payload, nd.lim)
	if err != nil || int(req.Hdr.From) != from || !validDecState(req, st.decCTs.Len(), nd.cfg.Scheme.NumShares()) {
		return tryReject
	}
	if nd.crashes(LegResp, s) {
		return tryHalf
	}
	// The response carries this side's key-share over the initiator's
	// post-adoption ciphertexts (the sim's apply(a, b)), computed
	// before any commit.
	x := nd.prepareDec(st, req, true)
	hdr := req.Hdr
	if !x.iAdopt {
		// Nothing of the request outlives this point unless this side
		// adopts it: hand its buffer back before the two network waits.
		x.peer = wireproto.DecView{}
		in.frame.Release()
	}
	if err := nd.writeMsg(in.conn, wireproto.KindDecResp, -1, st.decOut(hdr, x.fresh)); err != nil {
		return tryRetry
	}
	_ = in.conn.SetReadDeadline(time.Now().Add(nd.cfg.FinTimeout))
	f, err := nd.readFrame(in.conn)
	defer f.Release()
	if err != nil || f.Kind != wireproto.KindDecFin {
		return tryFinLost
	}
	fin, err := wireproto.ScanDec(f.Payload, nd.lim)
	if err != nil {
		return tryReject
	}
	if fin.Hdr.Flags&wireproto.FlagAbort != 0 {
		return tryHalf
	}
	nd.commitDec(st, x, from+1, fin.Fresh)
	nd.commit(s, st, false)
	return tryCommitted
}

// validPartials checks a scanned partial vector claims the expected
// share index on every element and covers the full vector.
func validPartials(ps homenc.PartialsView, share, dim int) bool {
	got, uniform := ps.Share()
	return ps.Len() == dim && uniform && got == share
}

// validDecState vets a peer's decryption state before any of it can be
// adopted: the ciphertext vector covers the full dimension and every
// gathered partial set is a full-length vector under its claimed share
// index — a malformed map must not be able to panic CombineParts after
// adoption.
func validDecState(m wireproto.DecView, dim, numShares int) bool {
	if m.CTs.Len() != dim {
		return false
	}
	//lint:orderfree pure validation: rejects on any bad entry, order cannot change the verdict
	for idx, ps := range m.Parts {
		if idx < 1 || idx > numShares || !validPartials(ps, idx, dim) {
			return false
		}
	}
	return true
}

// validSumState vets a peer's EESum state: full dimension and an epoch
// within the deployment's headroom bound — a hostile epoch would
// otherwise drive a 2^(epoch diff) ciphertext rescaling of unbounded
// cost. Nothing of the state has been materialized yet.
func (nd *Node) validSumState(st wireproto.SumSideView, dim int) bool {
	return st.CTs.Len() == dim && st.Epoch >= 0 && st.Epoch <= nd.maxEpoch
}
