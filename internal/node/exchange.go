package node

import (
	"errors"
	"net"
	"time"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/wireproto"
)

// iterState is the participant's live protocol state for one iteration:
// the eesum machine, driven here by frames. It is unlocked, under one of
// two regimes. While an exchange can still change it, only the exchange
// the main loop is currently processing touches it. Once the decryption
// state is settled (Participant.Settled) nothing writes to it until the
// phase ends: the main loop seals it and publishes it through the
// registry, and from then on the main loop's initiator slots and the
// passively served responder slots read it concurrently. Journal
// checkpoints, which lazily cache the sum states' wire images, are
// serialized by Node.commitMu.
type iterState = eesum.Participant

// wireSide is one EESum state in sending form, over its cached image.
func wireSide(s *eesum.SumSide) wireproto.SumSide {
	return wireproto.SumSide{CTs: s.Vector(), Omega: s.Omega, Epoch: s.Epoch}
}

// sumOut is the iteration's sum-phase state as an exchange leg (or a
// journal checkpoint, with a zero header) sends it.
func sumOut(st *iterState, hdr wireproto.ExchangeHdr) *wireproto.SumOut {
	return &wireproto.SumOut{Hdr: hdr, Means: wireSide(&st.Means), Noise: wireSide(&st.Noise), CtrSigma: st.CtrS, CtrOmega: st.CtrW}
}

// sumPeer materializes a scanned sum leg as the machine's peer.
func sumPeer(v wireproto.SumView) eesum.SumPeer {
	return eesum.SumPeer{Means: v.Means.State(), Noise: v.Noise.State(), CtrS: v.CtrSigma, CtrW: v.CtrOmega}
}

// decOut is the iteration's decryption state in sending form.
func decOut(st *iterState, hdr wireproto.ExchangeHdr, fresh *homenc.Partials) *wireproto.DecMsg {
	return &wireproto.DecMsg{Hdr: hdr, CTs: st.DecCTs, Omega: st.DecOmega, Parts: st.DecParts, Fresh: fresh}
}

// seal builds both forms of every vector of the decryption state, so
// that sending it (the image) and combining it (the values) are reads
// from here on: a settled state is shared between goroutines.
func seal(st *iterState) {
	st.DecCTs.Seal()
	//lint:orderfree every part is sealed; order is not protocol state
	for _, ps := range st.DecParts {
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
		if err := nd.writeMsg(conn, wireproto.KindSumReq, peer, sumOut(st, hdr)); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		defer f.Release()
		if err != nil || f.Kind != wireproto.KindSumResp {
			return tryRetry
		}
		resp, err := wireproto.ScanSum(f.Payload, nd.lim)
		if err != nil || !nd.validSumState(resp.Means, len(st.Means.CTs)) || !nd.validSumState(resp.Noise, len(st.Noise.CTs)) {
			return tryReject
		}
		// Initiator half: the commit point. Applied exactly once — no
		// failure after this line is ever retried.
		st.CommitSum(sumPeer(resp), true)
		nd.commit(s, st, true)
		nd.sendFin(conn, wireproto.KindSumFin, hdr, s, full, bareFin)
		return tryCommitted
	})
}

func (nd *Node) respondSum(st *iterState, s slot, from int) {
	nd.respondWith(s, from, func(in *inbound) tryOutcome {
		req, err := wireproto.ScanSum(in.frame.Payload, nd.lim)
		if err != nil || int(req.Hdr.From) != from ||
			!nd.validSumState(req.Means, len(st.Means.CTs)) || !nd.validSumState(req.Noise, len(st.Noise.CTs)) {
			return tryReject
		}
		if nd.crashes(LegResp, s) {
			return tryHalf
		}
		if err := nd.writeMsg(in.conn, wireproto.KindSumResp, -1, sumOut(st, req.Hdr)); err != nil {
			return tryRetry
		}
		fin, out := nd.awaitFin(in.conn, wireproto.KindSumFin)
		if out != tryCommitted {
			return out
		}
		if fin.Flags&wireproto.FlagAbort != 0 {
			return tryHalf // modeled mid-exchange churn
		}
		// Responder half: applied only once the fin says the initiator
		// committed.
		st.CommitSum(sumPeer(req), false)
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
		req := wireproto.DissMsg{Hdr: hdr, ID: st.CorID, Vec: st.CorVec}
		if err := nd.writeMsg(conn, wireproto.KindDissReq, peer, &req); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		defer f.Release()
		if err != nil || f.Kind != wireproto.KindDissResp {
			return tryRetry
		}
		resp, err := wireproto.UnmarshalDiss(f.Payload, nd.lim)
		if err != nil || len(resp.Vec) != len(st.CorVec) {
			return tryReject
		}
		// Commit point.
		st.CommitCorrection(resp.ID, resp.Vec)
		nd.commit(s, st, true)
		nd.sendFin(conn, wireproto.KindDissFin, hdr, s, full, bareFin)
		return tryCommitted
	})
}

func (nd *Node) respondDiss(st *iterState, s slot, from int) {
	nd.respondWith(s, from, func(in *inbound) tryOutcome {
		req, err := wireproto.UnmarshalDiss(in.frame.Payload, nd.lim)
		if err != nil || int(req.Hdr.From) != from || len(req.Vec) != len(st.CorVec) {
			return tryReject
		}
		if nd.crashes(LegResp, s) {
			return tryHalf
		}
		resp := wireproto.DissMsg{Hdr: req.Hdr, ID: st.CorID, Vec: st.CorVec}
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
		st.CommitCorrection(req.ID, req.Vec)
		nd.commit(s, st, false)
		return tryCommitted
	})
}

// --- epidemic decryption phase ---

// commitDecLeg commits this side's decryption transition with the key-share
// the peer sent on its response or fin leg. A share the state wanted but
// that is not a valid one — a full-length vector under the peer's share
// index — is dropped and counted as rejected.
func (nd *Node) commitDecLeg(st *iterState, x eesum.DecPrep, peerShare int, fresh homenc.PartialsView) {
	var ps *homenc.Partials
	bad := fresh.Len() > 0 && !validPartials(fresh, peerShare, st.DecCTs.Len())
	if fresh.Len() > 0 && !bad {
		ps = fresh.Copy()
	}
	if st.CommitDec(x, peerShare, ps) && bad {
		nd.counters.Rejected.Add(1)
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
		if err := nd.writeMsg(conn, wireproto.KindDecReq, peer, decOut(st, hdr, nil)); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		defer f.Release()
		if err != nil || f.Kind != wireproto.KindDecResp {
			return tryRetry
		}
		resp, err := wireproto.ScanDec(f.Payload, nd.lim)
		if err != nil || !validDecState(resp, st.DecCTs.Len(), nd.cfg.Scheme.NumShares()) {
			return tryReject
		}
		// The fin leg carries this side's key-share over the responder's
		// post-adoption ciphertexts; a half-completed exchange sends none.
		x := eesum.PrepareDec(st, resp, full)
		nd.commitDecLeg(st, x, peer+1, resp.Fresh)
		nd.commit(s, st, true)

		nd.sendFin(conn, wireproto.KindDecFin, hdr, s, full, func(h wireproto.ExchangeHdr) wireproto.Message {
			return &wireproto.DecMsg{Hdr: h, Fresh: x.Fresh}
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
// request once st is settled — when PrepareDec and CommitDec find
// nothing to compute or change, and all that remains of the exchange is
// the same validation, the same three legs and the same commit record.
func (nd *Node) serveDec(st *iterState, s slot, from int, in *inbound) tryOutcome {
	req, err := wireproto.ScanDec(in.frame.Payload, nd.lim)
	if err != nil || int(req.Hdr.From) != from || !validDecState(req, st.DecCTs.Len(), nd.cfg.Scheme.NumShares()) {
		return tryReject
	}
	if nd.crashes(LegResp, s) {
		return tryHalf
	}
	// The response carries this side's key-share over the initiator's
	// post-adoption ciphertexts, computed before any commit. Nothing of
	// the request outlives the preparation — a state to adopt is
	// detached from it — so its buffer goes back before the two network
	// waits.
	x := eesum.PrepareDec(st, req, true)
	hdr := req.Hdr
	in.frame.Release()
	if err := nd.writeMsg(in.conn, wireproto.KindDecResp, -1, decOut(st, hdr, x.Fresh)); err != nil {
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
	nd.commitDecLeg(st, x, from+1, fin.Fresh)
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
