package mux

import (
	"sync"
	"time"
)

// sweeper expires the deadlines of a Host's blocked in-process calls.
// It keeps the queue sides that have a call parked with a deadline in a
// min-heap by that deadline, and one runtime timer armed no later than
// the earliest: a blocked call costs a heap entry, not a timer and a
// channel of its own. The timer is re-armed only when a deadline earlier
// than the armed one arrives, and when it fires; a deadline cleared or
// moved later leaves it armed, and its firing then finds nothing due.
//
// Lock order is a queue's mu, then the sweeper's: a parking call enters
// and leaves the heap under its queue's lock, and the timer's callback
// lets go of the sweeper before it takes a queue's lock to wake it.
type sweeper struct {
	mu      sync.Mutex
	heap    []waiter    // min-heap by dl
	timer   *time.Timer // created at the first arming
	armed   time.Time   // when the timer fires; zero while it is stopped or running
	stopped bool        // the host is closed: arm nothing more
}

// waiter is a queue side with a call parked on it until dl: a copy of
// the side's deadline, which only its queue's lock guards.
type waiter struct {
	q  *queue
	s  *side
	dl time.Time
}

// add enters side s of q with its deadline, or moves its entry to that
// deadline, and arms the timer if it is now the earliest. q.mu is held.
func (sw *sweeper) add(q *queue, s *side) {
	sw.mu.Lock()
	if i := int(s.slot) - 1; i >= 0 {
		sw.heap[i].dl = s.dl
		sw.fix(i)
	} else {
		sw.heap = append(sw.heap, waiter{q: q, s: s, dl: s.dl})
		s.slot = int32(len(sw.heap))
		sw.up(len(sw.heap) - 1)
	}
	if sw.armed.IsZero() || s.dl.Before(sw.armed) {
		sw.arm(s.dl)
	}
	sw.mu.Unlock()
}

// remove takes side s out of the heap, unless the timer already has.
// Its queue's mu is held.
func (sw *sweeper) remove(s *side) {
	sw.mu.Lock()
	if i := int(s.slot) - 1; i >= 0 {
		sw.delete(i)
	}
	sw.mu.Unlock()
}

// fire is the timer's callback: it takes every side whose deadline has
// passed out of the heap and wakes its queue, one at a time and without
// holding the sweeper's lock while it holds the queue's, then arms the
// timer for the earliest deadline left. A queue whose pair was recycled
// in between gets a spurious wake: its calls look again and wait on.
func (sw *sweeper) fire() {
	sw.mu.Lock()
	sw.armed = time.Time{}
	for len(sw.heap) > 0 && !time.Now().Before(sw.heap[0].dl) {
		q := sw.heap[0].q
		sw.delete(0)
		sw.mu.Unlock()
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
		sw.mu.Lock()
	}
	if len(sw.heap) > 0 && (sw.armed.IsZero() || sw.heap[0].dl.Before(sw.armed)) {
		sw.arm(sw.heap[0].dl)
	}
	sw.mu.Unlock()
}

// arm sets the timer to fire at dl. sw.mu is held.
func (sw *sweeper) arm(dl time.Time) {
	if sw.stopped {
		return
	}
	sw.armed = dl
	if sw.timer == nil {
		sw.timer = time.AfterFunc(time.Until(dl), sw.fire)
	} else {
		sw.timer.Reset(time.Until(dl))
	}
}

// stop disarms the timer for good; the host calls it once every
// connection it served is closed, when no call can park any more.
func (sw *sweeper) stop() {
	sw.mu.Lock()
	sw.stopped = true
	sw.armed = time.Time{}
	if sw.timer != nil {
		sw.timer.Stop()
	}
	sw.mu.Unlock()
}

// delete takes entry i out of the heap and clears its slot, so that the
// heap's backing array keeps no queue reachable.
func (sw *sweeper) delete(i int) {
	last := len(sw.heap) - 1
	sw.swap(i, last)
	sw.heap[last].s.slot = 0
	sw.heap[last] = waiter{}
	sw.heap = sw.heap[:last]
	if i < last {
		sw.fix(i)
	}
}

// fix restores the heap order after entry i's deadline changed.
func (sw *sweeper) fix(i int) {
	if !sw.down(i) {
		sw.up(i)
	}
}

func (sw *sweeper) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !sw.heap[i].dl.Before(sw.heap[parent].dl) {
			return
		}
		sw.swap(i, parent)
		i = parent
	}
}

// down sifts entry i toward the leaves and reports whether it moved.
func (sw *sweeper) down(i int) bool {
	start := i
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(sw.heap) && sw.heap[c].dl.Before(sw.heap[least].dl) {
				least = c
			}
		}
		if least == i {
			return i > start
		}
		sw.swap(i, least)
		i = least
	}
}

func (sw *sweeper) swap(i, j int) {
	sw.heap[i], sw.heap[j] = sw.heap[j], sw.heap[i]
	sw.heap[i].s.slot = int32(i + 1)
	sw.heap[j].s.slot = int32(j + 1)
}
