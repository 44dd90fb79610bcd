package node

import (
	"errors"
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

// sumOut is the iteration's sum-phase state as an exchange leg (or a
// journal checkpoint, with a zero header) sends it.
func sumOut(st *iterState, hdr wireproto.ExchangeHdr) *wireproto.SumOut {
	return &wireproto.SumOut{Hdr: hdr, Means: st.Means, Noise: st.Noise, CtrSigma: st.CtrS, CtrOmega: st.CtrW}
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

// initiate drives one initiator slot of a phase's exchange under the
// fault policy: run attempts until one commits, a terminal outcome
// lands, or the retry budget is spent, backing off between attempts
// with capped jitter. Suspicion strikes are charged to the peer on
// terminal failures and cleared on commit.
func (nd *Node) initiate(phase int, st *iterState, peer int, s slot, full bool) {
	ex := &phases[phase]
	for attempt := 0; ; attempt++ {
		switch ex.initiate(nd, ex.req, st, peer, s, full) {
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

// respond drives one responder slot of a phase's exchange in slot
// order: await the request, serve it, and — when a pre-commit
// connection failure suggests the initiator failed before its own merge
// and will redial — re-await the slot within its absolute deadline. A
// served attempt commits at most once; every re-served attempt starts
// from the same untouched state, so the response bytes are identical
// across attempts. from is the scheduled initiator: when it is
// known-unreachable (crash-suspected or departed) the wait is cut short
// instead of burning the deadline — under a restart storm those
// abandoned waits, 50 slots × the full exchange timeout per storm, were
// the collapse from 227 to 1.45 cycles/s the crash-storm soak measured.
func (nd *Node) respond(phase int, st *iterState, s slot, from int) {
	defer nd.reg.release(s)
	deadline := time.Now().Add(nd.cfg.ExchangeTimeout)
	wait := nd.cfg.ExchangeTimeout
	for attempt := 0; ; attempt++ {
		in, ok := nd.awaitSlot(s, from, minDur(wait, time.Until(deadline)))
		if !ok {
			nd.counters.Timeouts.Add(1)
			return
		}
		out := nd.serveSlot(phase, st, s, from, in)
		if !nd.bookResponse(out, attempt, deadline) {
			return
		}
		wait = nd.redialWindow(out)
	}
}

// serveSlot serves one attempt at a responder slot of a phase's
// exchange: the one responder, run by the main loop in slot order while
// st can still change, and by whichever goroutine delivered the request
// once st is settled (servePassive) — when preparing and committing
// find nothing to compute or change, and all that remains of the
// exchange is the same validation, the same three legs and the same
// commit record. It owns in: the connection is closed and the frame
// released.
func (nd *Node) serveSlot(phase int, st *iterState, s slot, from int, in inbound) tryOutcome {
	ex := &phases[phase]
	return ex.respond(nd, ex.req, st, s, from, in)
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
// settled, on the main loop as it settles): the same serveSlot, the
// same bookkeeping and the same redial rules as respond, minus the wait
// for the slot's turn. The loop only continues with a redial that
// parked while the previous attempt was still running.
func (nd *Node) servePassive(t *tailSlot, in inbound) {
	for {
		out := nd.serveSlot(t.s.phase, t.st, t.s, t.from, in)
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

// --- the exchange every phase runs ---

// half is one side of a phase's exchange in flight: the peer's scanned
// leg and whatever this side prepared from it. initiateLegs and
// respondLegs run the legs every phase shares — dial, crash hooks, the
// request, the response, the machine transition, the journal commit,
// the fin — and a phase's half supplies only what differs: what its
// legs carry, how the peer's leg is vetted and which eesum.Participant
// transition commits it. The engine is generic over the half, so a
// half travels by value from the scan to the commit and no scanned view
// is boxed onto the heap. Each step's half is a variable of its own, not
// one reassigned: the compiler then shares their stack slots, and the
// engine's frames — under every crypto call of an exchange — stay some
// 180 B smaller (PERF.md).
type half[H any] interface {
	// scan decodes and vets the peer's state leg — the request, or the
	// response — and returns it with its header.
	scan(nd *Node, st *iterState, payload []byte) (H, wireproto.ExchangeHdr, bool)
	// prepare computes this side's half from both pre-exchange states,
	// before either changes; full is false when the exchange is to end
	// half-completed.
	prepare(st *iterState, full bool) H
	// holdsLeg reports whether the responder's commit still reads the
	// request: when it does not, the request's buffer goes back to the
	// pool before the two network waits.
	holdsLeg() bool
	// out is this side's state leg: the request (of the zero half) or
	// the response.
	out(st *iterState, hdr wireproto.ExchangeHdr) wireproto.Message
	// fin is the initiator's commit leg, and scanFin decodes it.
	fin(hdr wireproto.ExchangeHdr) wireproto.Message
	scanFin(nd *Node, payload []byte) (H, wireproto.ExchangeHdr, error)
	// commit applies this side's machine transition.
	commit(nd *Node, st *iterState, peer int, initiator bool)
}

// phases holds each phase's exchange by phase rank: the kind of its
// request leg — its response and fin are the next two kinds — and the
// two attempts run with its half.
var phases = [...]struct {
	req      byte
	initiate func(nd *Node, req byte, st *iterState, peer int, s slot, full bool) tryOutcome
	respond  func(nd *Node, req byte, st *iterState, s slot, from int, in inbound) tryOutcome
}{
	phaseSum:  {wireproto.KindSumReq, initiateLegs[sumHalf], respondLegs[sumHalf]},
	phaseDiss: {wireproto.KindDissReq, initiateLegs[dissHalf], respondLegs[dissHalf]},
	phaseDec:  {wireproto.KindDecReq, initiateLegs[decHalf], respondLegs[decHalf]},
}

// requestPhase returns the phase whose request leg is of the kind, or
// -1.
func requestPhase(kind byte) int {
	for phase := range phases {
		if phases[phase].req == kind {
			return phase
		}
	}
	return -1
}

// initiateLegs is one attempt at an initiator slot.
func initiateLegs[H half[H]](nd *Node, req byte, st *iterState, peer int, s slot, full bool) tryOutcome {
	conn, err := nd.dial(peer)
	if err != nil {
		return dialOutcome(err)
	}
	defer conn.Close()
	if nd.crashes(LegReq, s) {
		return tryHalf
	}
	var zero H
	hdr := nd.hdrFor(s, peer)
	// Request legs carry the destination index so a multiplexed
	// listener can route them; later legs ride the routed connection.
	if err := nd.writeMsg(conn, req, peer, zero.out(st, hdr)); err != nil {
		return tryRetry
	}
	f, err := nd.ep.read(conn)
	defer f.Release()
	if err != nil || f.Kind != req+1 {
		return tryRetry
	}
	resp, _, ok := zero.scan(nd, st, f.Payload)
	if !ok {
		return tryReject
	}
	// Initiator half: the commit point. Applied exactly once — no
	// failure after this line is ever retried.
	h := resp.prepare(st, full)
	h.commit(nd, st, peer, true)
	nd.commit(s, st, true)
	// The fin, unless the crash hook kills the exchange between the
	// merge and the fin. Modeled mid-exchange churn (full=false in the
	// schedule) sends an explicit abort so the responder resolves
	// instantly; the slow path — saying nothing and letting the
	// responder's fin timeout fire — is what a genuine crash produces,
	// with the identical half-completed outcome.
	if !nd.crashes(LegFin, s) {
		if !full {
			hdr.Flags |= wireproto.FlagAbort
		}
		_ = nd.writeMsg(conn, req+2, -1, h.fin(hdr))
	}
	return tryCommitted
}

// respondLegs is one attempt at a responder slot, serving the request
// in, whose connection and frame it owns. A lost or mistyped fin is a
// tryFinLost; a fin that arrived but does not decode is a tryReject.
func respondLegs[H half[H]](nd *Node, req byte, st *iterState, s slot, from int, in inbound) tryOutcome {
	defer in.conn.Close()
	defer in.frame.Release()
	var zero H
	reqLeg, hdr, ok := zero.scan(nd, st, in.frame.Payload)
	if !ok || int(hdr.From) != from {
		return tryReject
	}
	if nd.crashes(LegResp, s) {
		return tryHalf
	}
	// The response is this side's pre-merge state, and whatever it
	// carries for the initiator is computed before any commit.
	h := reqLeg.prepare(st, true)
	if !h.holdsLeg() {
		in.frame.Release()
	}
	if err := nd.writeMsg(in.conn, req+1, -1, h.out(st, hdr)); err != nil {
		return tryRetry
	}
	_ = in.conn.SetReadDeadline(time.Now().Add(nd.cfg.FinTimeout))
	f, err := nd.ep.read(in.conn)
	defer f.Release()
	if err != nil || f.Kind != req+2 {
		return tryFinLost
	}
	done, fin, err := h.scanFin(nd, f.Payload)
	if err != nil {
		return tryReject
	}
	if fin.Flags&wireproto.FlagAbort != 0 {
		return tryHalf // modeled mid-exchange churn
	}
	// Responder half: applied only once the fin says the initiator
	// committed.
	done.commit(nd, st, from, false)
	nd.commit(s, st, false)
	return tryCommitted
}

// --- sum phase (encrypted means + noise lockstep + counter) ---

// sumHalf: either state leg carries the side's two EESum states and its
// counter, the fin is bare, and either side commits Algorithm 2's update
// rule against the other's state, read off its leg. The half keeps the
// leg's payload — the frame is held until the commit — rather than its
// 184-byte scanned view, so the engine's frames under every exchange
// stay small; the commit scans the payload again and the merge kernel
// reads the peer's ciphertexts straight out of it.
type sumHalf struct{ payload []byte }

func (sumHalf) scan(nd *Node, st *iterState, payload []byte) (sumHalf, wireproto.ExchangeHdr, bool) {
	v, err := wireproto.ScanSum(payload, nd.lim)
	return sumHalf{payload}, v.Hdr, err == nil && nd.validSumState(v.Means, st.Means.CTs.Len()) && nd.validSumState(v.Noise, st.Noise.CTs.Len())
}

func (h sumHalf) prepare(*iterState, bool) sumHalf { return h }

func (sumHalf) holdsLeg() bool { return true }

func (sumHalf) out(st *iterState, hdr wireproto.ExchangeHdr) wireproto.Message {
	return sumOut(st, hdr)
}

func (sumHalf) fin(hdr wireproto.ExchangeHdr) wireproto.Message { return wireproto.Fin{Hdr: hdr} }

func (h sumHalf) scanFin(_ *Node, payload []byte) (sumHalf, wireproto.ExchangeHdr, error) {
	hdr, err := wireproto.PeekHdr(payload)
	return h, hdr, err
}

func (h sumHalf) commit(nd *Node, st *iterState, _ int, initiator bool) {
	// The payload passed scan unchanged, so it scans without error.
	v, _ := wireproto.ScanSum(h.payload, nd.lim)
	st.CommitSum(v.Peer(), initiator)
}

// --- correction dissemination phase ---

// dissHalf: either state leg carries the side's correction proposal,
// the fin is bare, and either side keeps the smaller identifier.
type dissHalf struct{ peer wireproto.DissMsg }

func (dissHalf) scan(nd *Node, st *iterState, payload []byte) (dissHalf, wireproto.ExchangeHdr, bool) {
	m, err := wireproto.UnmarshalDiss(payload, nd.lim)
	return dissHalf{m}, m.Hdr, err == nil && len(m.Vec) == len(st.CorVec)
}

func (h dissHalf) prepare(*iterState, bool) dissHalf { return h }

func (dissHalf) holdsLeg() bool { return false } // the proposal is decoded, not viewed

func (dissHalf) out(st *iterState, hdr wireproto.ExchangeHdr) wireproto.Message {
	return &wireproto.DissMsg{Hdr: hdr, ID: st.CorID, Vec: st.CorVec}
}

func (dissHalf) fin(hdr wireproto.ExchangeHdr) wireproto.Message { return wireproto.Fin{Hdr: hdr} }

func (h dissHalf) scanFin(_ *Node, payload []byte) (dissHalf, wireproto.ExchangeHdr, error) {
	hdr, err := wireproto.PeekHdr(payload)
	return h, hdr, err
}

func (h dissHalf) commit(_ *Node, st *iterState, _ int, _ bool) {
	st.CommitCorrection(h.peer.ID, h.peer.Vec)
}

// --- epidemic decryption phase ---

// decHalf: either state leg carries the side's decryption state; the
// response and the fin carry the sender's key-share over the receiver's
// post-adoption ciphertexts (a half-completed exchange's fin carries
// none), and either side commits the adopt-then-apply rule with the
// share it received.
type decHalf struct {
	peer wireproto.DecView // the peer's latest leg: its state, then (responder) its fin
	prep eesum.DecPrep
}

func (decHalf) scan(nd *Node, st *iterState, payload []byte) (decHalf, wireproto.ExchangeHdr, bool) {
	v, err := wireproto.ScanDec(payload, nd.lim)
	return decHalf{peer: v}, v.Hdr, err == nil && validDecState(v, st.DecCTs.Len(), nd.cfg.Scheme.NumShares())
}

func (h decHalf) prepare(st *iterState, full bool) decHalf {
	h.prep = eesum.PrepareDec(st, h.peer, full)
	return h
}

// holdsLeg: prepare detaches a state to adopt from the request, and the
// share the responder commits arrives on the fin.
func (decHalf) holdsLeg() bool { return false }

func (h decHalf) out(st *iterState, hdr wireproto.ExchangeHdr) wireproto.Message {
	return decOut(st, hdr, h.prep.Fresh)
}

func (h decHalf) fin(hdr wireproto.ExchangeHdr) wireproto.Message {
	return &wireproto.DecMsg{Hdr: hdr, Fresh: h.prep.Fresh}
}

func (h decHalf) scanFin(nd *Node, payload []byte) (decHalf, wireproto.ExchangeHdr, error) {
	v, err := wireproto.ScanDec(payload, nd.lim)
	h.peer = v
	return h, v.Hdr, err
}

// commit applies the key-share the peer sent on its response or fin
// leg. A share the state wanted but that is not a valid one — a
// full-length vector under the peer's share index — is dropped and
// counted as rejected.
func (h decHalf) commit(nd *Node, st *iterState, peer int, _ bool) {
	fresh, share := h.peer.Fresh, peer+1
	bad := fresh.Len() > 0 && !validPartials(fresh, share, st.DecCTs.Len())
	var ps *homenc.Partials
	if fresh.Len() > 0 && !bad {
		ps = fresh.Copy()
	}
	if st.CommitDec(h.prep, share, ps) && bad {
		nd.counters.Rejected.Add(1)
	}
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
