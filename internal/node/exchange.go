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
// of the participant's one current slot touches it: the main loop's
// initiator attempt, or the serve of its one open responder slot, on
// whichever goroutine holds the request (respond). Once the decryption
// state is settled (Participant.Settled) nothing writes to it until the
// phase ends: the main loop publishes it through the registry, and from
// then on the main loop's initiator slots and the serves of the open
// responder slots read it concurrently. Either way the main loop touches
// it again only once the slots it waits for are closed — a stopped node
// touches it no more (core.Config.Iterate returns at the failed phase),
// since a serve may still be in flight.
// Every vector of a decryption state is an image, which sending and
// combining read element by element (homenc.Operand), so those reads
// build nothing. So is every other vector of the state: a Vector has no
// lazy form, and a journal checkpoint appends the state's images as
// they are, writing none of them. Node.commitMu serializes checkpoints
// for the journal's sake (one writer, counter snapshots in commit
// order), not the state's.
type iterState = eesum.Participant

// sumOut is the iteration's sum-phase state as an exchange leg (or a
// journal checkpoint, with a zero header) sends it.
func sumOut(st *iterState, hdr wireproto.ExchangeHdr) wireproto.SumOut {
	return wireproto.SumOut{Hdr: hdr, Means: st.Means, CtrSigma: st.CtrS, CtrOmega: st.CtrW}
}

// dissOut is the elected vector as a journal checkpoint records it.
func dissOut(st *iterState) wireproto.DissMsg {
	return wireproto.DissMsg{ID: st.VecID, CTs: st.Vec, Omega: st.VecOmega}
}

// decOut is the iteration's decryption state as a journal checkpoint
// records it: the whole share set, this participant's own key-share once
// applied, and its release once released. The initiator whose commit
// filled its set journals before it settles, and a release that failed
// to decode is not recorded: either way the resumed participant's full
// set settles again when its decryption resumes, to the same release or
// error.
func decOut(st *iterState) wireproto.DecMsg {
	return wireproto.DecMsg{ID: st.VecID, Shares: st.DecParts, Parts: st.DecParts, Fresh: st.Own, Released: st.Released != nil, Release: st.Released}
}

// leg is where an exchange leg goes: the connection, the leg's kind and
// the population index it is addressed to (< 0: untargeted), so a
// multiplexed listener on the far side can route it without decoding the
// payload. Exchange request legs carry the target; every later leg
// travels on an already-routed connection.
type leg struct {
	nd     *Node
	conn   net.Conn
	kind   byte
	target int
}

// send writes m as the leg. It is generic over the message so that the
// message travels by value into the pooled frame, not boxed onto the
// heap as an interface.
func send[M wireproto.Message](l leg, m M) error {
	n, err := wireproto.WriteMessage(l.conn, l.kind, l.nd.epoch, l.target, m)
	if err == nil {
		l.nd.counters.BytesSent.Add(int64(n))
	}
	return err
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
	return nd.cfg.CrashHook != nil && nd.cfg.CrashHook(leg, s.phase, s.iter, s.cycle, s.seq)
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
			if attempt >= nd.cfg.Policy.MaxRetries {
				nd.counters.Timeouts.Add(1)
				nd.peerFailed(peer, s)
				return
			}
			nd.counters.Retries.Add(1)
			if !nd.sleep(backoffDelay(nd.jitter, nd.cfg.Policy.Backoff, attempt, 8*nd.cfg.Policy.Backoff)) {
				return // shutting down
			}
		}
	}
}

// respond drives one responder slot of a phase's exchange in slot
// order, while st can still change: it opens the slot for one exchange
// timeout, serves the request already parked for it, if any, and waits
// until the slot closes. A request that arrives meanwhile — the first
// one or a redial — is served by the goroutine that delivers it. Either
// way servePassive serves it, as in a settled tail; since this is the
// participant's one open slot, nothing else touches st meanwhile. The
// phase is s's; from is the scheduled initiator.
func (nd *Node) respond(_ int, st *iterState, s slot, from int) {
	t := &nd.serial
	*t = tailSlot{s: s, from: from, st: st}
	if in, ok := nd.reg.open(t, time.Now().Add(nd.cfg.ExchangeTimeout)); ok {
		nd.servePassive(t, in)
	}
	nd.waitClosed(t)
}

// servePassive serves a claimed responder slot on the goroutine that
// holds its request: the one that opened the slot, or the one that
// delivered the request to the open slot. A served attempt commits at
// most once, and every re-served attempt starts from the same untouched
// state, so the response bytes are identical across attempts. The slot
// stays open for the initiator's redial only after a failure strictly
// before this side's merge, within the retry budget and the slot's
// deadline (zero: none yet); after a lost fin, only for one backoff
// envelope — the far more likely reading of a lost fin is an initiator
// that committed and died, and nobody redials a committed slot. The
// loop only continues with a redial that parked while the previous
// attempt was still running; one arriving later is claimed by whoever
// delivers it.
func (nd *Node) servePassive(t *tailSlot, in inbound) {
	ex := &phases[t.s.phase]
	for {
		out := ex.respond(nd, ex.req, t.st, t.s, t.from, in)
		reopen, window := false, nd.cfg.ExchangeTimeout
		switch out {
		case tryReject:
			nd.counters.Rejected.Add(1)
		case tryAbandon:
			nd.counters.Timeouts.Add(1)
		case tryRetry, tryFinLost:
			deadline := nd.reg.tailDeadline(t)
			reopen = t.attempts < nd.cfg.Policy.MaxRetries && (deadline.IsZero() || time.Now().Before(deadline))
			if !reopen {
				nd.counters.Timeouts.Add(1)
				break
			}
			nd.counters.Retries.Add(1)
			if out == tryFinLost {
				window = 8*nd.cfg.Policy.Backoff + 250*time.Millisecond
			}
		}
		var ok bool
		if in, ok = nd.reg.finish(t, reopen, window); !ok {
			return
		}
	}
}

// waitClosed is the one wait for an open responder slot: until it is
// served to a terminal outcome, expires unserved at its deadline, or —
// while nobody serves it — is released early because its scheduled
// initiator is known to be unreachable (crash-suspected or departed),
// instead of burning the deadline: under a restart storm those
// abandoned waits, 50 slots × the full exchange timeout per storm, were
// the collapse from 227 to 1.45 cycles/s the crash-storm soak measured.
// A slot that closes unserved costs one Timeouts count. A stopped
// node's wait returns at once, and an attempt still in flight then owns
// the slot and its state.
func (nd *Node) waitClosed(t *tailSlot) {
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
}

// awaitTail is the one wait at the end of a settled tail: the main loop
// has walked its initiator slots and now waits, against a single
// deadline, for whatever responder slots are still open. A slot whose
// initiator never shows up costs one Timeouts count, as in slot order,
// but the waits overlap instead of adding up. progress is called each
// time the wait has moved past a slot.
func (nd *Node) awaitTail(tails []*tailSlot, progress func()) {
	nd.reg.armTail(time.Now().Add(nd.cfg.ExchangeTimeout))
	for _, t := range tails {
		nd.waitClosed(t)
		progress()
	}
}

// suspicionPoll is how often a waiting responder re-checks whether the
// initiator it awaits became unreachable.
const suspicionPoll = 250 * time.Millisecond

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
	// scan decodes and vets the state leg of the scheduled peer — its
	// request, or (resp) its response — and returns it with its header.
	scan(nd *Node, st *iterState, payload []byte, peer int, resp bool) (H, wireproto.ExchangeHdr, bool)
	// prepare computes this side's half from both pre-exchange states,
	// before either changes; full is false when the exchange is to end
	// half-completed.
	prepare(st *iterState, full bool) H
	// holdsLeg reports whether the responder's commit still reads the
	// request: when it does not, the request's buffer goes back to the
	// pool before the two network waits.
	holdsLeg() bool
	// out sends this side's state leg: the request (of the zero half)
	// or the response.
	out(l leg, st *iterState, hdr wireproto.ExchangeHdr) error
	// fin sends the initiator's commit leg, and scanFin decodes and vets
	// it.
	fin(l leg, hdr wireproto.ExchangeHdr) error
	scanFin(nd *Node, st *iterState, payload []byte) (H, wireproto.ExchangeHdr, bool)
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
	if err := zero.out(leg{nd, conn, req, peer}, st, hdr); err != nil {
		return tryRetry
	}
	f, err := nd.ep.read(conn)
	defer f.Release()
	if err != nil || f.Kind != req+1 {
		return tryRetry
	}
	resp, _, ok := zero.scan(nd, st, f.Payload, peer, true)
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
		_ = h.fin(leg{nd, conn, req + 2, -1}, hdr)
	}
	// A decryption commit that filled the share set left the combine
	// until the fin was out; the state is settled before the main loop
	// looks at it again.
	st.Settle()
	return tryCommitted
}

// respondLegs is one attempt at a responder slot, serving the request
// in, whose connection and frame it owns. A lost or mistyped fin is a
// tryFinLost; a fin that arrived but does not decode is a tryReject.
func respondLegs[H half[H]](nd *Node, req byte, st *iterState, s slot, from int, in inbound) tryOutcome {
	defer in.conn.Close()
	defer in.frame.Release()
	var zero H
	reqLeg, hdr, ok := zero.scan(nd, st, in.frame.Payload, from, false)
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
	if err := h.out(leg{nd, in.conn, req + 1, -1}, st, hdr); err != nil {
		return tryRetry
	}
	_ = in.conn.SetReadDeadline(time.Now().Add(nd.cfg.FinTimeout))
	f, err := nd.ep.read(in.conn)
	defer f.Release()
	if err != nil || f.Kind != req+2 {
		return tryFinLost
	}
	done, fin, ok := h.scanFin(nd, st, f.Payload)
	if !ok {
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

// --- sum phase (encrypted sum + counter) ---

// sumHalf: either state leg carries the side's EESum state and its
// counter, the fin is bare, and either side commits Algorithm 2's update
// rule against the other's state, read off its leg. The half keeps the
// leg's payload — the frame is held until the commit — rather than its
// 112-byte scanned view, so the engine's frames under every exchange
// stay small; the commit scans the payload again and the merge kernel
// reads the peer's ciphertexts straight out of it.
type sumHalf struct{ payload []byte }

func (sumHalf) scan(nd *Node, st *iterState, payload []byte, _ int, _ bool) (sumHalf, wireproto.ExchangeHdr, bool) {
	v, err := wireproto.ScanSum(payload, nd.lim)
	return sumHalf{payload}, v.Hdr, err == nil && nd.validSumState(v.Means, st.Means.CTs.Len())
}

func (h sumHalf) prepare(*iterState, bool) sumHalf { return h }

func (sumHalf) holdsLeg() bool { return true }

func (sumHalf) out(l leg, st *iterState, hdr wireproto.ExchangeHdr) error {
	return send(l, sumOut(st, hdr))
}

func (sumHalf) fin(l leg, hdr wireproto.ExchangeHdr) error { return send(l, wireproto.Fin{Hdr: hdr}) }

// scanFin vets the fin: it is bare, so one carrying anything past its
// header — a state, say — is refused.
func (h sumHalf) scanFin(_ *Node, _ *iterState, payload []byte) (sumHalf, wireproto.ExchangeHdr, bool) {
	hdr, err := wireproto.PeekHdr(payload)
	return h, hdr, err == nil && len(payload) == wireproto.Fin{Hdr: hdr}.Size()
}

func (h sumHalf) commit(nd *Node, st *iterState, _ int, initiator bool) {
	// The payload passed scan unchanged, so it scans without error.
	v, _ := wireproto.ScanSum(h.payload, nd.lim)
	st.CommitSum(v.Peer(), initiator)
}

// --- dissemination phase (election of the vector to decrypt) ---

// dissHalf: the request carries the initiator's identifier alone; the
// response and the fin carry the sender's identifier, plus its vector
// when the receiver's identifier is the larger — the only side that
// adopts it. Either side keeps the smaller identifier's vector. A leg
// with a vector the receiver would not adopt, or without one it would,
// is refused.
type dissHalf struct {
	peer wireproto.DissView // the peer's latest leg
	last wireproto.DissMsg  // initiator: what its fin carries
}

// scan vets the request (it carries no vector) or the response (a
// vector exactly when the responder's identifier is the smaller).
func (dissHalf) scan(nd *Node, st *iterState, payload []byte, _ int, resp bool) (dissHalf, wireproto.ExchangeHdr, bool) {
	v, err := wireproto.ScanDiss(payload, nd.lim)
	return dissHalf{peer: v}, v.Hdr, err == nil && validElect(v, resp && v.ID < st.VecID, st.Vec.Len())
}

func (h dissHalf) prepare(st *iterState, full bool) dissHalf {
	// The fin (only the initiator's prepare sees the response) says the
	// identifier the initiator holds after its commit, with its vector
	// when that is its own, smaller one.
	h.last = wireproto.DissMsg{ID: min(st.VecID, h.peer.ID)}
	if full && st.VecID < h.peer.ID {
		h.last.CTs, h.last.Omega = st.Vec, st.VecOmega
	}
	return h
}

func (dissHalf) holdsLeg() bool { return false } // the request carries no vector

// out is the request (zero half: the identifier alone) or the response
// (the vector too when the initiator's identifier is the larger).
func (h dissHalf) out(l leg, st *iterState, hdr wireproto.ExchangeHdr) error {
	m := wireproto.DissMsg{Hdr: hdr, ID: st.VecID}
	if st.VecID < h.peer.ID {
		m.CTs, m.Omega = st.Vec, st.VecOmega
	}
	return send(l, m)
}

func (h dissHalf) fin(l leg, hdr wireproto.ExchangeHdr) error {
	m := h.last
	m.Hdr = hdr
	return send(l, m)
}

// scanFin vets the fin against the request it closes: it names the
// smaller of the two identifiers, with the initiator's vector exactly
// when that is smaller than the responder's.
func (h dissHalf) scanFin(nd *Node, st *iterState, payload []byte) (dissHalf, wireproto.ExchangeHdr, bool) {
	v, err := wireproto.ScanDiss(payload, nd.lim)
	if err != nil || v.Hdr.Flags&wireproto.FlagAbort != 0 {
		return h, v.Hdr, err == nil
	}
	ok := v.ID == min(h.peer.ID, st.VecID) && validElect(v, v.ID < st.VecID, st.Vec.Len())
	h.peer = v
	return h, v.Hdr, ok
}

func (h dissHalf) commit(_ *Node, st *iterState, _ int, _ bool) {
	if h.peer.Carries() {
		st.CommitDiss(h.peer.ID, h.peer.CTs.Copy(), h.peer.Omega())
	}
}

// validElect reports whether a dissemination leg carries a vector
// exactly when one is due — and then one of the deployment's length
// with a positive weight.
func validElect(v wireproto.DissView, due bool, dim int) bool {
	if !due {
		return !v.Carries() && v.Omega().Sign() == 0
	}
	return v.CTs.Len() == dim && v.Omega().Sign() > 0
}

// --- epidemic decryption phase ---

// decHalf: every leg names the vector its sender decrypts. A side not
// yet released sends its share indices: the request carries no partial
// decryptions, the response carries the parts the initiator lacks and
// will keep, and the fin the parts the responder lacks and will keep;
// the response and the fin carry the sender's key-share too when one is
// due to the receiver (a half-completed exchange's fin carries nothing).
// A released side names no entries: its request says it is released,
// and its response and fin carry its release. Both sides plan the rule
// (eesum.PrepareDec) from the two pre-exchange legs, so a side commits
// what the other's next leg carries: the initiator the response, the
// responder the fin. The key-share is the sender's: its index is the
// peer's.
type decHalf struct {
	peer      wireproto.DecView // the peer's latest leg: its response, or its request (whose frame is released: only its ID and mark are read) then its fin
	peerShare int               // the peer's key-share index
	self      uint64            // the vector this side decrypts, which its fin names
	prep      eesum.DecPrep
	fresh     *homenc.Vector // this side's key-share for the peer, when due
	release   []float64      // this side's release, which its fin carries, when it was released before the exchange
}

// scan vets the request — indices alone, or the release mark alone — or
// (resp) the response: the parts the initiator is owed and no other, a
// key-share exactly when the rule owes one, and a release exactly when
// the responder is released. The key-share is filed under the scheduled
// peer's index, never one a header names.
func (decHalf) scan(nd *Node, st *iterState, payload []byte, peer int, resp bool) (decHalf, wireproto.ExchangeHdr, bool) {
	v, err := wireproto.ScanDec(payload, nd.lim)
	h := decHalf{peer: v, peerShare: peer + 1}
	carried, ok := nd.validDecLeg(v, st, resp)
	if err != nil || !ok || (!resp && (carried > 0 || v.Fresh.Len() > 0)) {
		return h, v.Hdr, false
	}
	h.prep = eesum.PrepareDec(st, v, h.peerShare)
	return h, v.Hdr, !resp || ((v.Fresh.Len() > 0) == h.prep.PeerSends && eesum.CarriesOwed(st, h.prep, v))
}

// prepare applies this side's key-share when it is due: the planning
// was done by scan.
func (h decHalf) prepare(st *iterState, _ bool) decHalf {
	h.self = st.VecID
	h.fresh = st.Fresh(h.prep)
	if h.prep.SendsRelease {
		h.release = st.Released
	}
	return h
}

// holdsLeg: the responder commits what the fin carries, not the request.
func (decHalf) holdsLeg() bool { return false }

// out is the request (zero half) or the response: a released side's
// names no entries, and only the response carries the release.
func (h decHalf) out(l leg, st *iterState, hdr wireproto.ExchangeHdr) error {
	if st.Settled() {
		m := wireproto.DecMsg{Hdr: hdr, ID: st.VecID, Released: true}
		if l.kind != wireproto.KindDecReq {
			m.Release = st.Released
		}
		return send(l, m)
	}
	return send(l, wireproto.DecMsg{Hdr: hdr, ID: st.VecID, Shares: st.DecParts, Parts: h.prep.Send, Fresh: h.fresh})
}

// fin carries what the responder is owed — the initiator's release when
// it was released before the exchange — unless it aborts the exchange.
func (h decHalf) fin(l leg, hdr wireproto.ExchangeHdr) error {
	m := wireproto.DecMsg{Hdr: hdr, ID: h.self}
	switch {
	case hdr.Flags&wireproto.FlagAbort != 0:
	case h.prep.SendsRelease:
		m.Released, m.Release = true, h.release
	default:
		m.Shares, m.Parts, m.Fresh = h.prep.Send, h.prep.Send, h.fresh
	}
	return send(l, m)
}

// scanFin vets the fin: it names the request's vector and is released
// exactly when the request was, carries the parts the responder is owed
// and no other — every entry with its partial decryptions — and the
// initiator's key-share exactly when one is due.
func (h decHalf) scanFin(nd *Node, st *iterState, payload []byte) (decHalf, wireproto.ExchangeHdr, bool) {
	v, err := wireproto.ScanDec(payload, nd.lim)
	if err != nil || v.Hdr.Flags&wireproto.FlagAbort != 0 {
		return h, v.Hdr, err == nil
	}
	carried, ok := nd.validDecLeg(v, st, true)
	ok = ok && v.ID == h.peer.ID && v.Released() == h.peer.Released() && carried == v.Gathered() &&
		(v.Fresh.Len() > 0) == h.prep.PeerSends && eesum.CarriesOwed(st, h.prep, v)
	h.peer = v
	return h, v.Hdr, ok
}

// commit applies the parts, the key-share or the release the peer sent
// on its response or fin leg, which scan or scanFin vetted. A responder
// whose set this fills settles at once, before its journal commit; an
// initiator does after its fin (initiateLegs).
func (h decHalf) commit(_ *Node, st *iterState, _ int, initiator bool) {
	eesum.CommitDec(st, h.prep, h.peer, h.peer.Fresh.Copy())
	if !initiator {
		st.Settle()
	}
}

// validDecLeg vets a peer's decryption leg before any of it can be
// taken or applied — every entry names a share index the deployment has
// and carries a full-length vector or nothing, and so does the key-share:
// a malformed set must not be able to panic the combine — and returns
// how many entries carry a vector. A released leg names no entries (a
// key-share on it is one the rule does not owe, which the caller
// refuses); a request (answer false) carries no release, and a response
// or fin (answer true) carries one of the iteration's length. When the
// receiver is released over the same vector, that release must be its
// own bit for bit: every participant releases the same values.
func (nd *Node) validDecLeg(v wireproto.DecView, st *iterState, answer bool) (carried int, ok bool) {
	if v.Released() {
		switch {
		case v.Gathered() > 0:
			return 0, false
		case !answer:
			return 0, v.ReleaseLen() == 0
		case v.ReleaseLen() != st.ReleaseDim():
			return 0, false
		}
		return 0, v.ID != st.VecID || !st.Settled() || v.SameRelease(st.Released)
	}
	dim := st.Vec.Len()
	if v.Fresh.Len() != 0 && v.Fresh.Len() != dim {
		return 0, false
	}
	shares := nd.cfg.Scheme.NumShares()
	for c, i := 0, 0; i < v.Gathered(); i++ {
		idx, part, next := v.At(c)
		if idx < 1 || idx > shares || (part.Len() != 0 && part.Len() != dim) {
			return 0, false
		}
		if part.Len() > 0 {
			carried++
		}
		c = next
	}
	return carried, true
}

// validSumState vets a peer's EESum state: full dimension and an epoch
// within the deployment's headroom bound — a hostile epoch would
// otherwise drive a 2^(epoch diff) ciphertext rescaling of unbounded
// cost. Nothing of the state has been materialized yet.
func (nd *Node) validSumState(st wireproto.SumSideView, dim int) bool {
	return st.CTs.Len() == dim && st.Epoch >= 0 && st.Epoch <= nd.env.SumEpochs
}
