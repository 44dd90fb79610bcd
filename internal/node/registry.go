package node

import (
	"net"
	"sync"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/wireproto"
)

// phase ranks order the three exchange phases within an iteration.
// They are the shared core.Phase ranks, so the observer callbacks and
// the wire slots speak the same numbering.
const (
	phaseSum  = int(core.PhaseSum)
	phaseDiss = int(core.PhaseDissemination)
	phaseDec  = int(core.PhaseDecryption)
)

// slot identifies one scheduled exchange globally: iteration, phase,
// cycle, sequence within the cycle. Slots are totally ordered. A peer
// whose state an exchange can still change processes its own
// participations strictly in slot order — it has at most one slot open
// at a time — which makes the distributed execution
// conflict-serializable in the global schedule order (exchanges not
// sharing a node commute). A peer whose decryption state is settled —
// τ key-shares gathered, read-only until the phase ends — shares
// nothing between its remaining slots, so they commute too: it opens
// them all at once and serves them in whatever order their requests
// arrive (see tailSlot).
type slot struct {
	iter  int
	phase int
	cycle int
	seq   int
}

func (s slot) before(o slot) bool {
	if s.iter != o.iter {
		return s.iter < o.iter
	}
	if s.phase != o.phase {
		return s.phase < o.phase
	}
	if s.cycle != o.cycle {
		return s.cycle < o.cycle
	}
	return s.seq < o.seq
}

// inbound is an exchange request off the wire: the decoded frame and
// the connection the response legs travel on. Whoever claims it — the
// goroutine that opens its slot, or the one that delivers it to an open
// slot — serves it and owns the connection from then on.
type inbound struct {
	frame wireproto.Frame
	conn  net.Conn
}

// tailSlot is one open responder slot: a request for it is served by
// whoever holds it (Node.servePassive) — the main loop, for a request
// parked before the slot opened, or the goroutine that delivers it
// while the slot is open. The main loop's walk opens one slot at a time
// while its state can change (Node.respond, due ExchangeTimeout later)
// and the rest of a settled decryption phase's at once (Node.openTail
// through settle; a zero deadline waits until the walk is through its
// initiator slots, armTail).
// busy is the claim — set under the registry lock by whoever takes a
// request, so a slot is served by one goroutine at a time and its
// server alone touches attempts; a redial arriving meanwhile parks
// under the slot for the server to pick up. A closed slot is tombstoned.
type tailSlot struct {
	s        slot
	from     int        // scheduled initiator
	st       *iterState // the state it serves
	busy     bool
	attempts int // served attempts that ended without closing the slot
	deadline time.Time
	closed   bool
}

// tailStatus is what waitTail found out about an open slot.
type tailStatus int

const (
	tailPending tailStatus = iota // still open when the poll slice ran out
	tailClosed                    // served to a terminal outcome (or the registry shut down)
	tailExpired                   // nobody showed up by its deadline; tombstoned by this call
)

// registry is the rendezvous between inbound exchange requests and the
// participant's responder slots. Requests may arrive arbitrarily early
// (the initiator runs ahead), more than once (a retrying initiator
// redials the same slot after its connection died), or never (the
// initiator died for good). It keeps one rule: a request for an open
// slot is claimed by the goroutine that delivers it, and any other is
// parked until its slot opens — open and settle claim what is parked,
// under the same lock that decides park-or-claim for every arrival, so
// no request is served twice or falls between the two — or passes:
// advance prunes entries that fall behind the owner's position, which
// moves with each cycle the walk reports (in a settled tail too, once
// no open slot precedes the cycle's end). A
// served attempt that failed before its merge leaves the slot open for
// the initiator's redial; a slot closes for good once served to a
// terminal outcome or expired, and is tombstoned, so a late delivery
// can never strand a connection where nobody will look for it.
//
// Only the owner's goroutine waits on a registry — waitTail runs on the
// main loop, one call at a time — and every change a wait waits for
// happens under mu. So one wake channel and one timer serve every wait:
// an open slot closing or going idle posts a wake, and the woken owner
// re-reads the state under mu; a wake meant for another wait is only a
// spurious one.
type registry struct {
	mu      sync.Mutex
	pending map[slot]inbound   // parked requests, at most one a slot
	done    map[slot]bool      // closed slots (pruned by advance)
	serving map[slot]*tailSlot // open slots
	horizon slot               // the owner's current position; earlier slots are stale
	closed  bool
	stop    <-chan struct{} // closed on node shutdown; wakes a blocked wait (nil: never)
	wake    chan struct{}   // something the owner may wait on changed
	timer   *time.Timer     // the owner's wait timer; stopped between waits
}

func newRegistry(stop <-chan struct{}) *registry {
	return &registry{
		pending: make(map[slot]inbound),
		done:    make(map[slot]bool),
		serving: make(map[slot]*tailSlot),
		stop:    stop,
		wake:    make(chan struct{}, 1),
	}
}

// deliver hands a request to its slot. Requests for slots already
// passed, closed, or arriving after close are refused: the connection
// is closed and false returned. A request for an idle open slot is
// claimed: the slot comes back, and the caller must serve it
// (Node.servePassive). Anything else is parked. A parked request nobody
// has claimed yet is replaced — the newest connection wins, because a
// retrying initiator only redials after its previous connection died,
// so whatever was parked before is a corpse.
func (r *registry) deliver(s slot, in inbound) (*tailSlot, bool) {
	r.mu.Lock()
	if r.closed || r.done[s] || s.before(r.horizon) {
		r.mu.Unlock()
		_ = in.conn.Close()
		return nil, false
	}
	if t := r.serving[s]; t != nil && !t.busy {
		t.busy = true
		r.mu.Unlock()
		return t, true
	}
	stale, replaced := r.pending[s]
	r.pending[s] = in
	r.mu.Unlock()
	if replaced {
		_ = stale.conn.Close()
	}
	return nil, true
}

// take removes and returns the request parked for s, if any. Callers
// hold r.mu.
func (r *registry) take(s slot) (inbound, bool) {
	in, ok := r.pending[s]
	delete(r.pending, s)
	return in, ok
}

// --- open slots ---

// open opens responder slot t until deadline and claims the request
// already parked for it, if any: the caller must serve it
// (Node.servePassive). A closed registry opens nothing: the slot comes
// back closed.
func (r *registry) open(t *tailSlot, deadline time.Time) (inbound, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		t.closed = true
		return inbound{}, false
	}
	t.deadline = deadline
	r.serving[t.s] = t
	in, ok := r.take(t.s)
	t.busy = ok
	return in, ok
}

// claim is a request taken for service together with its slot.
type claim struct {
	t  *tailSlot
	in inbound
}

// settle opens the given responder slots of a settled tail, with no
// deadline until armTail, and returns the requests already parked for
// them, claimed, for the caller to serve.
func (r *registry) settle(tails []*tailSlot) []claim {
	var parked []claim
	for _, t := range tails {
		if in, ok := r.open(t, time.Time{}); ok {
			parked = append(parked, claim{t, in})
		}
	}
	return parked
}

// closeTail tombstones an open slot, wakes the main loop and closes
// whatever redial was parked for the slot. It is called with r.mu held
// and drops it.
func (r *registry) closeTail(t *tailSlot) {
	t.closed, t.busy = true, false
	delete(r.serving, t.s)
	r.done[t.s] = true
	r.signal()
	stale, parked := r.take(t.s)
	r.mu.Unlock()
	if parked {
		_ = stale.conn.Close()
	}
}

// signal wakes the owner's wait without blocking: one pending wake-up
// is enough, the waiter re-reads the state it waits on. Callers hold
// r.mu.
func (r *registry) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// tailDeadline returns a claimed slot's current deadline (zero: none).
func (r *registry) tailDeadline(t *tailSlot) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return t.deadline
}

// finish ends the served attempt of a claimed slot. With reopen
// false the slot is closed for good. Otherwise it stays claimable for
// the initiator's redial, for at most window from now: a redial that
// parked while the attempt ran is handed straight back to the caller,
// still claimed; else the slot goes idle.
func (r *registry) finish(t *tailSlot, reopen bool, window time.Duration) (inbound, bool) {
	r.mu.Lock()
	if t.closed { // the registry shut down under the attempt
		r.mu.Unlock()
		return inbound{}, false
	}
	if !reopen {
		r.closeTail(t)
		return inbound{}, false
	}
	t.attempts++
	if d := time.Now().Add(window); t.deadline.IsZero() || d.Before(t.deadline) {
		t.deadline = d
	}
	in, ok := r.take(t.s)
	if !ok {
		t.busy = false
		r.signal()
	}
	r.mu.Unlock()
	return in, ok
}

// armTail gives every open slot that has no earlier deadline the one
// the main loop waits for a settled tail's stragglers by.
func (r *registry) armTail(deadline time.Time) {
	r.mu.Lock()
	//lint:orderfree independent per-slot update; every open slot is visited
	for _, t := range r.serving {
		if t.deadline.IsZero() || deadline.Before(t.deadline) {
			t.deadline = deadline
		}
	}
	r.mu.Unlock()
}

// tailOpenBefore reports whether any slot before pos is still open.
func (r *registry) tailOpenBefore(pos slot) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	//lint:orderfree existence check: the verdict does not depend on visiting order
	for s := range r.serving {
		if s.before(pos) {
			return true
		}
	}
	return false
}

// waitTail waits on one open slot for at most poll: until it closes, or
// — while no attempt is in flight — its deadline passes, in which case
// this call tombstones it. An attempt in flight is always waited out
// (its connection deadlines bound it): the slot's fate is its server's
// to book. tailPending means the slice (or the node) ran out first.
func (r *registry) waitTail(t *tailSlot, poll time.Duration) tailStatus {
	status, wait := r.tailState(t, poll)
	if status != tailPending {
		return status
	}
	// Since Go 1.23 (go.mod) a timer delivers no tick from before a
	// Reset or Stop, so the one timer is reused without draining.
	if r.timer == nil {
		r.timer = time.NewTimer(wait)
	} else {
		r.timer.Reset(wait)
	}
	defer r.timer.Stop()
	for {
		select {
		case <-r.wake: // some slot closed or went idle: look again
		case <-r.timer.C:
			return tailPending
		case <-r.stop:
			return tailPending
		}
		if status, _ = r.tailState(t, poll); status != tailPending {
			return status
		}
	}
}

// tailState is waitTail's look at t: closed, expired — tombstoned by
// this call — or pending, and then for at most how much of poll to wait.
func (r *registry) tailState(t *tailSlot, poll time.Duration) (tailStatus, time.Duration) {
	r.mu.Lock()
	if t.closed {
		r.mu.Unlock()
		return tailClosed, 0
	}
	if !t.busy && !t.deadline.IsZero() {
		left := time.Until(t.deadline)
		if left <= 0 {
			r.closeTail(t)
			return tailExpired, 0
		}
		poll = min(poll, left)
	}
	r.mu.Unlock()
	return tailPending, poll
}

// expireTail tombstones an open slot nobody is serving — the early
// release of a slot whose initiator is known to be unreachable — and
// reports whether it did.
func (r *registry) expireTail(t *tailSlot) bool {
	r.mu.Lock()
	if t.closed || t.busy {
		r.mu.Unlock()
		return false
	}
	r.closeTail(t)
	return true
}

// advance moves the owner's position: entries for earlier slots can
// never be consumed anymore and are closed out, and earlier tombstones
// are garbage-collected.
func (r *registry) advance(pos slot) {
	r.mu.Lock()
	r.horizon = pos
	//lint:orderfree independent per-slot close-out; each entry is handled exactly once
	for s, in := range r.pending {
		if s.before(pos) {
			_ = in.conn.Close()
			delete(r.pending, s)
		}
	}
	//lint:orderfree independent per-slot garbage collection
	for s := range r.done {
		if s.before(pos) {
			delete(r.done, s)
		}
	}
	r.mu.Unlock()
}

// close refuses all future deliveries, drains parked connections and
// closes the open slots: attempts in flight die with their connections.
func (r *registry) close() {
	r.mu.Lock()
	r.closed = true
	//lint:orderfree independent per-slot close-out during shutdown
	for s, t := range r.serving {
		t.closed = true
		delete(r.serving, s)
	}
	r.signal()
	//lint:orderfree independent per-slot drain during shutdown
	for s, in := range r.pending {
		_ = in.conn.Close()
		delete(r.pending, s)
	}
	r.mu.Unlock()
}
