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
// participations strictly in slot order, which makes the distributed
// execution conflict-serializable in the global schedule order
// (exchanges not sharing a node commute). A peer whose decryption state
// is settled — τ key-shares gathered, read-only until the phase ends —
// shares nothing between its remaining slots, so they commute too and
// run in whatever order their requests arrive (see tailSlot).
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
// the connection the response legs travel on. Whoever serves it — the
// responder's main loop once it consumes a parked entry, or the
// delivering goroutine when the slot is served passively — owns the
// connection from then on.
type inbound struct {
	frame wireproto.Frame
	conn  net.Conn
}

// tailSlot is one responder slot of a settled participant's decryption
// tail, open for passive service: a request for it is served by the
// goroutine that delivers it, the moment it arrives. busy is the claim —
// set under the registry lock by whoever takes a request, so a slot is
// served by one goroutine at a time and its owner alone touches
// attempts; a redial arriving meanwhile parks under the slot for the
// owner to pick up. A zero deadline means the slot waits as long as
// the tail lasts (the main loop arms it once its own initiator slots are
// through); closed slots are tombstoned like released ones.
type tailSlot struct {
	s        slot
	from     int        // scheduled initiator
	st       *iterState // the settled state it serves, read-only
	busy     bool
	attempts int // served attempts that ended without closing the slot
	deadline time.Time
	closed   bool
}

// tailStatus is what waitTail found out about a tail slot.
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
// initiator died for good). For a slot served in slot order the request
// is parked until the main loop reaches it: the loop waits with a
// deadline and prunes entries that fall behind its position. Consuming
// a delivery does not close a slot — the owner may re-await it while
// re-serving a retried exchange; release tombstones the slot when its
// owner is done for good, so a late delivery can never strand a
// connection where nobody will look for it. For a slot of a settled
// tail the request is claimed by its deliverer instead. Which of the
// two happens is decided under mu, and settle moves what is already
// parked over under the same lock, so no request falls between the
// regimes or is served twice.
//
// Only the owner's goroutine waits on a registry — await and waitTail
// run on the main loop, one at a time — and every change a wait waits
// for happens under mu. So one wake channel and one timer serve every
// wait: a delivery, or a tail slot closing or going idle, posts a wake,
// and the woken owner re-reads the state under mu; a wake meant for
// another wait is only a spurious one.
type registry struct {
	mu      sync.Mutex
	pending map[slot]inbound   // parked requests, at most one a slot
	done    map[slot]bool      // consumed or abandoned slots (pruned by advance)
	tail    map[slot]*tailSlot // open passively-served slots
	horizon slot               // the owner's current position; earlier slots are stale
	closed  bool
	stop    <-chan struct{} // closed on node shutdown; wakes blocked awaits (nil: never)
	wake    chan struct{}   // something the owner may wait on changed
	timer   *time.Timer     // the owner's wait timer; stopped between waits
}

func newRegistry(stop <-chan struct{}) *registry {
	return &registry{
		pending: make(map[slot]inbound),
		done:    make(map[slot]bool),
		tail:    make(map[slot]*tailSlot),
		stop:    stop,
		wake:    make(chan struct{}, 1),
	}
}

// deliver hands a request to its slot. Requests for slots already
// passed, released, or arriving after close are refused: the connection
// is closed and false returned. A request for an idle tail slot is
// claimed: the slot comes back, and the caller must serve it
// (Node.servePassive). Anything else is parked. A parked request the
// owner has not consumed yet is replaced — the newest connection wins,
// because a retrying initiator only redials after its previous
// connection died, so whatever was parked before is a corpse.
func (r *registry) deliver(s slot, in inbound) (*tailSlot, bool) {
	r.mu.Lock()
	if r.closed || r.done[s] || s.before(r.horizon) {
		r.mu.Unlock()
		_ = in.conn.Close()
		return nil, false
	}
	if t := r.tail[s]; t != nil && !t.busy {
		t.busy = true
		r.mu.Unlock()
		return t, true
	}
	stale, replaced := r.pending[s]
	r.pending[s] = in
	r.signal()
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
	if ok {
		delete(r.pending, s)
	}
	return in, ok
}

// startTimer arms the owner's wait timer for d and returns its channel;
// the wait that armed it stops it when it ends. Since Go 1.23 (go.mod)
// a timer delivers no tick from before a Reset or Stop, so the timer is
// reused without draining.
func (r *registry) startTimer(d time.Duration) <-chan time.Time {
	if r.timer == nil {
		r.timer = time.NewTimer(d)
	} else {
		r.timer.Reset(d)
	}
	return r.timer.C
}

// await blocks until a request for slot s arrives, the deadline passes,
// or the registry's stop channel closes (node shutdown — cancellation
// must not sit out a full exchange timeout). The slot stays open
// afterwards: the owner re-awaits it while re-serving retried
// exchanges, and calls release when done with it for good. A
// non-positive timeout polls: an already-parked request is returned,
// nothing is waited for.
func (r *registry) await(s slot, timeout time.Duration) (inbound, bool) {
	// The request is usually there already (initiators run ahead): look
	// before arming the timer.
	in, ok, over := r.look(s)
	if ok || over || timeout <= 0 {
		return in, ok
	}
	expired := r.startTimer(timeout)
	defer r.timer.Stop()
	for {
		select {
		case <-r.wake: // a delivery, maybe for s: look again
		case <-expired:
			in, ok, _ = r.look(s) // whatever is parked now is the last word
			return in, ok
		case <-r.stop:
			return inbound{}, false // close drains the parked conn, if any
		}
		if in, ok, over = r.look(s); ok || over {
			return in, ok
		}
	}
}

// look takes the request parked for s, if any; over reports that none
// can come any more: the slot is released or the registry closed.
func (r *registry) look(s slot) (in inbound, ok, over bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.done[s] {
		return inbound{}, false, true
	}
	in, ok = r.take(s)
	return in, ok, false
}

// release tombstones a slot its owner is done with: later deliveries
// are refused at the door, and a parked request nobody will ever
// consume is closed out.
func (r *registry) release(s slot) {
	r.mu.Lock()
	r.tombstone(s)
}

// tombstone marks s done, drops r.mu — which the caller holds — and
// closes whatever was parked for the slot.
func (r *registry) tombstone(s slot) {
	stale, parked := r.take(s)
	r.done[s] = true
	r.mu.Unlock()
	if parked {
		_ = stale.conn.Close()
	}
}

// --- the settled tail ---

// claim is a request taken for passive service together with its slot.
type claim struct {
	t  *tailSlot
	in inbound
}

// settle opens the given responder slots for passive service. Requests
// already parked for them are claimed here, under the same lock that
// decides park-or-claim for every later arrival, and returned for the
// caller to serve.
func (r *registry) settle(tails []*tailSlot) []claim {
	var parked []claim
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range tails {
		if r.closed {
			t.closed = true
			continue
		}
		r.tail[t.s] = t
		if in, ok := r.take(t.s); ok {
			t.busy = true
			parked = append(parked, claim{t, in})
		}
	}
	return parked
}

// closeTail tombstones a tail slot and wakes the main loop. Like
// tombstone it is called with r.mu held and drops it.
func (r *registry) closeTail(t *tailSlot) {
	t.closed, t.busy = true, false
	delete(r.tail, t.s)
	r.signal()
	r.tombstone(t.s)
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

// finish ends the served attempt of a claimed tail slot. With reopen
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

// armTail gives every open tail slot that has no earlier deadline the
// one the main loop waits for all stragglers by.
func (r *registry) armTail(deadline time.Time) {
	r.mu.Lock()
	//lint:orderfree independent per-slot update; every open slot is visited
	for _, t := range r.tail {
		if t.deadline.IsZero() || deadline.Before(t.deadline) {
			t.deadline = deadline
		}
	}
	r.mu.Unlock()
}

// tailOpenBefore reports whether any tail slot before pos is still
// open.
func (r *registry) tailOpenBefore(pos slot) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	//lint:orderfree existence check: the verdict does not depend on visiting order
	for s := range r.tail {
		if s.before(pos) {
			return true
		}
	}
	return false
}

// waitTail waits on one tail slot for at most poll: until it closes, or
// — while no attempt is in flight — its deadline passes, in which case
// this call tombstones it. An attempt in flight is always waited out
// (its connection deadlines bound it): the slot's fate is its server's
// to book. tailPending means the slice (or the node) ran out first.
func (r *registry) waitTail(t *tailSlot, poll time.Duration) tailStatus {
	status, wait := r.tailState(t, poll)
	if status != tailPending {
		return status
	}
	slice := r.startTimer(wait)
	defer r.timer.Stop()
	for {
		select {
		case <-r.wake: // some tail slot closed or went idle: look again
		case <-slice:
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

// expireTail tombstones a tail slot nobody is serving — the early
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
// closes the tail: attempts in flight die with their connections.
func (r *registry) close() {
	r.mu.Lock()
	r.closed = true
	//lint:orderfree independent per-slot close-out during shutdown
	for s, t := range r.tail {
		t.closed = true
		delete(r.tail, s)
	}
	r.signal()
	//lint:orderfree independent per-slot drain during shutdown
	for s, in := range r.pending {
		_ = in.conn.Close()
		delete(r.pending, s)
	}
	r.mu.Unlock()
}
