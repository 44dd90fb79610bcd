package mux

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"chiaroscuro/internal/wireproto"
)

// maxQueued is how many unread bytes a direction may hold before the
// next Write waits for the reader. The protocol never has more than two
// frames in flight per direction (request then fin, or response), so an
// exchange never waits here; the bound only keeps a writer that streams
// at a stalled reader from growing the queue without limit.
const maxQueued = 64 << 10

// inprocConn is one end of the host's in-process connection: the
// net.Conn two co-located participants exchange over. Each direction is
// a queue of bytes in a buffer borrowed from the frame pool — Write
// appends and returns, Read drains, and what was written before the
// writer's Close is delivered before io.EOF, as on TCP, which is the
// contract internal/node's commit-point taxonomy was written against.
//
// Deadlines are stored values, not timers. A blocked Read or Write
// waits on its queue's condition variable, and only while it waits with
// a deadline is it an entry of the host's sweeper, whose one timer
// serves every blocked call on the host: blocking allocates nothing,
// and whatever deadlines an exchange set, a closed connection's ends
// are unreachable from any runtime root. A timer armed per SetDeadline
// call whose callback reaches the connection would instead keep it live
// until the deadline would have fired — under the ten-minute exchange
// timeout of a large virtual population, every connection dialed in the
// last ten minutes.
//
// The two queues are a pooled pair: once both ends are closed and no
// call is parked on either queue, the pair goes back to the pool for
// the next dial, and a finished exchange leaves only its two small ends
// behind as garbage. An end is bound to the generation of the pair it
// was handed out with, and every queue operation checks it under the
// queue's lock, so an end that outlives its connection — closed again
// by a connection set's shutdown, or given a late deadline — acts on
// nothing: it is a closed end.
type inprocConn struct {
	in, out *queue
	p       *pair
	gen     uint64 // the generation of p this end belongs to
}

// pair is the two queues of a connection, reused across connections.
type pair struct{ q [2]queue }

var pairs = sync.Pool{New: func() any {
	p := new(pair)
	for i := range p.q {
		p.q[i].cond.L = &p.q[i].mu
	}
	return p
}}

// newInprocPair returns the two ends of a fresh connection whose
// blocked calls' deadlines sw expires.
func newInprocPair(sw *sweeper) (*inprocConn, *inprocConn) {
	return pairs.Get().(*pair).open(sw)
}

// open returns the two ends of p, a pair fresh from the pool, as a
// connection whose blocked calls' deadlines sw expires.
func (p *pair) open(sw *sweeper) (*inprocConn, *inprocConn) {
	var gen uint64
	for i := range p.q {
		q := &p.q[i]
		q.mu.Lock()
		q.sw, gen = sw, q.gen
		q.mu.Unlock()
	}
	return &inprocConn{in: &p.q[0], out: &p.q[1], p: p, gen: gen},
		&inprocConn{in: &p.q[1], out: &p.q[0], p: p, gen: gen}
}

// recycle puts p back into the pool if both ends of generation gen are
// closed and no call is parked on either queue; a call still parked
// will look at its queue again when it wakes, so such a pair is left to
// the garbage collector instead. Recycling moves both queues to the
// next generation, which turns every end of gen stale.
func (p *pair) recycle(gen uint64) {
	a, b := &p.q[0], &p.q[1]
	a.mu.Lock()
	b.mu.Lock()
	done := a.gen == gen && a.idle() && b.idle()
	if done {
		a.reset()
		b.reset()
	}
	b.mu.Unlock()
	a.mu.Unlock()
	if done {
		pairs.Put(p)
	}
}

// queue is one direction of a connection.
type queue struct {
	mu   sync.Mutex
	cond sync.Cond // on mu: where blocked Reads and Writes wait
	sw   *sweeper  // expires the deadlines of blocked calls
	gen  uint64    // bumped each time the queue's pair is recycled

	buf []byte // pooled; nil while nothing is queued
	off int    // the unread bytes are buf[off:]

	wclosed bool // writing end closed: io.EOF once drained
	rclosed bool // reading end closed: queued bytes are gone, writes fail

	r, w side // the reader's and the writer's
}

// idle reports whether both of q's ends are closed and no call waits
// on it. q.mu is held.
func (q *queue) idle() bool {
	return q.rclosed && q.wclosed && q.r.parked == 0 && q.w.parked == 0
}

// reset readies an idle q for the pair's next generation. q.mu is held.
// A side with no call parked is out of the sweeper's heap, so its slot
// is already clear.
func (q *queue) reset() {
	q.gen++
	q.sw = nil
	q.release()
	q.wclosed, q.rclosed = false, false
	q.r.dl, q.w.dl = time.Time{}, time.Time{}
}

// side is what a queue keeps for its reader, or for its writer.
type side struct {
	dl     time.Time // the deadline
	parked uint16    // calls waiting on cond
	slot   int32     // the side's place in sw's heap plus one, 0 when absent; sw.mu guards it
}

// wake makes every call waiting on q look at the queue again.
func (q *queue) wake() {
	if q.r.parked > 0 || q.w.parked > 0 {
		q.cond.Broadcast()
	}
}

func expired(dl time.Time) bool { return !dl.IsZero() && !time.Now().Before(dl) }

// block parks the caller on side s until a wake or s's deadline passes;
// the caller then re-examines the queue, deadline included. q.mu is held
// on entry and on return. A side with a deadline is in the sweeper's
// heap only while a call of it is parked.
func (q *queue) block(s *side) {
	if !s.dl.IsZero() {
		q.sw.add(q, s)
	}
	s.parked++
	q.cond.Wait()
	if s.parked--; s.parked == 0 {
		q.sw.remove(s)
	}
}

// release hands the queue's buffer back to the pool.
func (q *queue) release() {
	wireproto.PutBuf(q.buf)
	q.buf, q.off = nil, 0
}

func (q *queue) read(gen uint64, p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		switch {
		case q.rclosed || q.gen != gen:
			return 0, io.ErrClosedPipe
		case expired(q.r.dl):
			return 0, os.ErrDeadlineExceeded
		case q.off < len(q.buf):
			n := copy(p, q.buf[q.off:])
			if q.off += n; q.off == len(q.buf) {
				q.release()
			}
			if len(q.buf)-q.off <= maxQueued {
				q.wake()
			}
			return n, nil
		case q.wclosed:
			return 0, io.EOF
		case len(p) == 0:
			return 0, nil
		}
		q.block(&q.r)
	}
}

func (q *queue) write(gen uint64, p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		switch {
		case q.wclosed || q.rclosed || q.gen != gen:
			return 0, io.ErrClosedPipe
		case expired(q.w.dl):
			return 0, os.ErrDeadlineExceeded
		case len(p) == 0:
			return 0, nil
		case len(q.buf)-q.off <= maxQueued:
			q.push(p)
			q.wake()
			return len(p), nil
		}
		q.block(&q.w)
	}
}

// push appends p behind the unread bytes, making room first: in the
// slack behind them, by moving them to the front of the buffer, or in a
// larger buffer.
func (q *queue) push(p []byte) {
	unread := len(q.buf) - q.off
	switch {
	case q.buf == nil:
		q.buf = wireproto.GetBuf(len(p))[:0]
	case len(p) <= cap(q.buf)-len(q.buf):
	case unread+len(p) <= cap(q.buf):
		q.buf = q.buf[:copy(q.buf, q.buf[q.off:])]
		q.off = 0
	default:
		grown := wireproto.GetBuf(max(unread+len(p), 2*cap(q.buf)))[:unread]
		copy(grown, q.buf[q.off:])
		q.release()
		q.buf = grown
	}
	q.buf = append(q.buf, p...)
}

// closeRead closes q's reading end and reports whether this call did:
// false if it was closed already, or belongs to another generation.
func (q *queue) closeRead(gen uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rclosed || q.gen != gen {
		return false
	}
	q.rclosed = true
	q.release()
	q.wake()
	return true
}

func (q *queue) closeWrite(gen uint64) {
	q.mu.Lock()
	if q.gen == gen {
		q.wclosed = true
		q.wake()
	}
	q.mu.Unlock()
}

func (q *queue) setReadDeadline(gen uint64, t time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rclosed || q.gen != gen {
		return io.ErrClosedPipe
	}
	q.r.dl = t
	q.wake()
	return nil
}

func (q *queue) setWriteDeadline(gen uint64, t time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.wclosed || q.gen != gen {
		return io.ErrClosedPipe
	}
	q.w.dl = t
	q.wake()
	return nil
}

func (c *inprocConn) Read(p []byte) (int, error)  { return c.in.read(c.gen, p) }
func (c *inprocConn) Write(p []byte) (int, error) { return c.out.write(c.gen, p) }

// Close closes this end: its own blocked calls and the peer's blocked
// writes fail with io.ErrClosedPipe, the peer reads what was already
// written and then io.EOF. Closing again is harmless. The close that
// finds the peer's end closed too recycles the pair.
func (c *inprocConn) Close() error {
	if c.in.closeRead(c.gen) {
		c.out.closeWrite(c.gen)
		c.p.recycle(c.gen)
	}
	return nil
}

func (c *inprocConn) SetReadDeadline(t time.Time) error  { return c.in.setReadDeadline(c.gen, t) }
func (c *inprocConn) SetWriteDeadline(t time.Time) error { return c.out.setWriteDeadline(c.gen, t) }

func (c *inprocConn) SetDeadline(t time.Time) error {
	if err := c.in.setReadDeadline(c.gen, t); err != nil {
		return err
	}
	return c.out.setWriteDeadline(c.gen, t)
}

func (c *inprocConn) LocalAddr() net.Addr  { return inprocAddr{} }
func (c *inprocConn) RemoteAddr() net.Addr { return inprocAddr{} }

type inprocAddr struct{}

func (inprocAddr) Network() string { return "inproc" }
func (inprocAddr) String() string  { return "inproc" }
