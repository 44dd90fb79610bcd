package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"chiaroscuro/internal/wireproto"
)

// Endpoint is a listener's end of the wire — a standalone node's, or a
// mux.Host's shared by every node it hosts: the connections it opens
// and accepts, the byte accounting of the frames it reads and writes,
// and the membership round trips (hello, resume, view gossip, leave) it
// answers and asks over its address book. Both kinds of listener speak
// membership through one, so they answer every frame alike.
type Endpoint struct {
	n        int
	epoch    uint64
	digest   uint64
	lim      wireproto.Limits
	timeout  time.Duration // the exchange timeout: every round trip's I/O bound
	dialer   Dialer
	book     *Book
	counters *wireproto.CounterSet
	live     connSet // every open conn, closable on shutdown
	// reinstate lifts a returning peer's suspicion eviction: on the node
	// itself, or on every node a host hosts.
	reinstate func(peer int)
}

// NewEndpoint returns the endpoint of a listener provisioned with cfg
// and d (Provision) over book. Its traffic is counted into counters.
func NewEndpoint(cfg *Config, d Deployment, book *Book, counters *wireproto.CounterSet, reinstate func(peer int)) *Endpoint {
	return &Endpoint{
		n: cfg.N, epoch: cfg.Epoch, digest: d.Digest, lim: d.Lim, timeout: cfg.ExchangeTimeout,
		dialer: cfg.Dialer, book: book, counters: counters, reinstate: reinstate,
	}
}

// Track registers a fresh connection with the endpoint and wraps it so
// that its Close deregisters it. A conn arriving after CloseAll is
// closed at once (its I/O fails fast).
func (ep *Endpoint) Track(conn net.Conn) net.Conn {
	if !ep.live.add(conn) {
		_ = conn.Close()
	}
	return &trackedConn{Conn: conn, set: &ep.live}
}

// CloseAll closes every tracked connection and refuses later ones: a
// blocked read or write then returns at once instead of burning its
// deadline, which is what makes shutdown prompt.
func (ep *Endpoint) CloseAll() { ep.live.closeAll() }

// dial opens a tracked connection to addr (peer: its population index,
// or -1 for membership traffic), giving the dial dialTimeout and the
// connection's I/O ioTimeout from now.
func (ep *Endpoint) dial(peer int, addr string, dialTimeout, ioTimeout time.Duration) (net.Conn, error) {
	conn, err := ep.dialer.Dial(peer, addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	conn = ep.Track(conn)
	_ = conn.SetDeadline(time.Now().Add(ioTimeout))
	return conn, nil
}

// write and read wrap the wire layer with byte accounting. A malformed
// or over-limit frame — as opposed to a connection dying mid-frame —
// additionally counts toward BadFrames: hostile input is accounted
// separately from network weather, and the offending connection is
// always dropped by the caller.
func (ep *Endpoint) write(conn net.Conn, kind byte, payload []byte) error {
	err := wireproto.WriteFrameTarget(conn, kind, ep.epoch, -1, payload)
	if err == nil {
		ep.counters.BytesSent.Add(int64(wireproto.FrameWireSize(len(payload))))
	}
	return err
}

func (ep *Endpoint) read(conn net.Conn) (wireproto.Frame, error) {
	f, err := wireproto.ReadFrame(conn, ep.lim.MaxFrameLen)
	if err == nil {
		ep.counters.BytesRecv.Add(int64(wireproto.FrameWireSize(len(f.Payload))))
	} else if errors.Is(err, wireproto.ErrMalformed) {
		ep.counters.BadFrames.Add(1)
	}
	return f, err
}

// ackOf is the reply kind to a membership request kind that gets one.
func ackOf(kind byte) byte {
	switch kind {
	case wireproto.KindHello:
		return wireproto.KindHelloAck
	case wireproto.KindResume:
		return wireproto.KindResumeAck
	}
	return kind // a view is answered with a view
}

// Answer answers one membership frame — hello, resume, view or leave —
// and closes the connection. A hello or resume from a peer provisioned
// with another configuration digest is refused with KindReject; any
// other announcement is learned, and a view merged, before the reply
// hands back the roster. A resume is a hello from a restarted peer that
// additionally lifts the peer's suspicion eviction: it is provably back,
// and fast-failing its slots would turn its recovery into a permanent
// hole in the schedule. Nothing Answer keeps aliases the frame's
// payload; the caller still owns the frame.
func (ep *Endpoint) Answer(conn net.Conn, f wireproto.Frame) {
	defer conn.Close()
	_ = conn.SetWriteDeadline(time.Now().Add(ep.timeout))
	switch f.Kind {
	case wireproto.KindHello, wireproto.KindResume:
		h, err := ep.announced(f)
		if err != nil || int(h.N) != ep.n || int(h.Index) >= ep.n {
			ep.counters.Rejected.Add(1)
			return
		}
		if h.Digest != 0 && h.Digest != ep.digest {
			ep.counters.Rejected.Add(1)
			_ = ep.write(conn, wireproto.KindReject, wireproto.MarshalReject(wireproto.Reject{
				Reason: fmt.Sprintf("config digest %016x, want %016x (check population/k/frac-bits/pack-slots)", h.Digest, ep.digest),
			}))
			return
		}
		ep.book.Learn(int(h.Index), h.Addr)
		if f.Kind == wireproto.KindResume {
			ep.reinstate(int(h.Index))
			ep.counters.Resumed.Add(1)
		}
	case wireproto.KindView:
		items, err := wireproto.UnmarshalView(f.Payload, ep.lim)
		if err != nil {
			ep.counters.Rejected.Add(1)
			return
		}
		ep.book.Merge(items)
	case wireproto.KindLeave:
		if l, err := wireproto.UnmarshalLeave(f.Payload); err == nil && int(l.Index) < ep.n {
			ep.book.MarkGone(int(l.Index))
		}
		return
	default:
		ep.counters.Rejected.Add(1)
		return
	}
	_ = ep.write(conn, ackOf(f.Kind), wireproto.MarshalView(ep.book.Roster()))
}

// announced decodes a hello or a resume into the identity both carry.
func (ep *Endpoint) announced(f wireproto.Frame) (wireproto.Hello, error) {
	if f.Kind == wireproto.KindHello {
		return wireproto.UnmarshalHello(f.Payload, ep.lim)
	}
	r, err := wireproto.UnmarshalResume(f.Payload, ep.lim)
	return wireproto.Hello{Index: r.Index, Addr: r.Addr, N: r.N, Digest: r.Digest}, err
}

// Ask performs one membership round trip with addr (peer: its index,
// or -1 when unknown), every step bounded by timeout: it sends a hello,
// resume or view and merges the roster the reply carries into the book,
// returning it. A KindReject reply — the peer's configuration digest
// differs — comes back as an ErrConfigMismatch error: retrying cannot
// reconcile inconsistent provisioning. A refusal or a roster that does
// not decode comes back as an errBadReply error and counts nothing: only
// a joining node books it as Rejected (Node.hello).
func (ep *Endpoint) Ask(peer int, addr string, timeout time.Duration, kind byte, payload []byte) ([]wireproto.ViewItem, error) {
	conn, err := ep.dial(peer, addr, timeout, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := ep.write(conn, kind, payload); err != nil {
		return nil, err
	}
	f, err := ep.read(conn)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	switch f.Kind {
	case wireproto.KindReject:
		r, err := wireproto.UnmarshalReject(f.Payload)
		if err != nil {
			return nil, fmt.Errorf("%w: peer %s: %w", errBadReply, addr, err)
		}
		return nil, fmt.Errorf("%w: peer %s: %s", ErrConfigMismatch, addr, r.Reason)
	case ackOf(kind):
		items, err := wireproto.UnmarshalView(f.Payload, ep.lim)
		if err != nil {
			return nil, fmt.Errorf("%w: peer %s: %w", errBadReply, addr, err)
		}
		ep.book.Merge(items)
		return items, nil
	}
	return nil, fmt.Errorf("node: peer %s answered kind %#x to %#x", addr, f.Kind, kind)
}

// errBadReply marks a membership reply whose payload does not decode.
var errBadReply = errors.New("node: undecodable membership reply")

// connSet tracks every open connection of an endpoint so shutdown can
// close them all.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// add registers a connection; it reports false (and the caller must
// treat the conn as dead) when the set already shut down.
func (cs *connSet) add(c net.Conn) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return false
	}
	if cs.conns == nil {
		cs.conns = make(map[net.Conn]struct{})
	}
	cs.conns[c] = struct{}{}
	return true
}

func (cs *connSet) remove(c net.Conn) {
	cs.mu.Lock()
	delete(cs.conns, c)
	cs.mu.Unlock()
}

// closeAll closes every tracked connection and refuses future adds.
func (cs *connSet) closeAll() {
	cs.mu.Lock()
	cs.closed = true
	conns := cs.conns
	cs.conns = nil
	cs.mu.Unlock()
	//lint:orderfree every connection is closed; close order is not protocol state
	for c := range conns {
		_ = c.Close()
	}
}

// trackedConn removes itself from its set on Close, so the set only
// holds genuinely open connections. A connection handed from a host to
// the node it routes to is tracked by both; closing it twice is
// harmless.
type trackedConn struct {
	net.Conn
	set *connSet
}

func (c *trackedConn) Close() error {
	c.set.remove(c.Conn)
	return c.Conn.Close()
}
