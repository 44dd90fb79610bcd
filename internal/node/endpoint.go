package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"chiaroscuro/internal/wireproto"
)

// Endpoint is one end of the wire — a node's, or a mux.Host's: the
// connections it opens and serves, the byte accounting of the frames it
// reads and writes, and the membership round trips (hello, resume, view
// gossip, leave) it answers and asks over its address book. It is every
// listener's one inbound path: Serve accepts, and ServeConn reads each
// connection's first frame, answers membership itself and routes an
// exchange request to the node that serves it. Each end of a connection
// is tracked by exactly one endpoint — the dialing node's, or the
// serving node's (a host's until it routes the end) — so that
// endpoint's shutdown closes it.
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
	// route names the node that serves a frame addressed to target (< 0:
	// an untargeted exchange request), or nil to refuse it: a node's
	// endpoint routes to the node, a host's through its node map.
	route func(target int) *Node
}

// NewEndpoint returns the endpoint of a listener provisioned with cfg
// and d (Provision) over book. Its traffic is counted into counters.
func NewEndpoint(cfg *Config, d Deployment, book *Book, counters *wireproto.CounterSet, reinstate func(peer int), route func(target int) *Node) *Endpoint {
	return &Endpoint{
		n: cfg.N, epoch: d.Epoch, digest: d.Digest, lim: d.Lim, timeout: cfg.ExchangeTimeout,
		dialer: cfg.Dialer, book: book, counters: counters, reinstate: reinstate, route: route,
	}
}

// track registers a fresh connection with the endpoint and wraps it so
// that its Close deregisters it. A conn arriving after CloseAll is
// closed at once (its I/O fails fast).
func (ep *Endpoint) track(conn net.Conn) net.Conn {
	if !ep.live.add(conn) {
		_ = conn.Close()
	}
	return &trackedConn{Conn: conn, set: &ep.live}
}

// Conns reports how many open connections the endpoint tracks.
func (ep *Endpoint) Conns() int {
	ep.live.mu.Lock()
	defer ep.live.mu.Unlock()
	return len(ep.live.conns)
}

// Serve accepts connections on ln until it is closed, serving each on a
// goroutine of its own; wg counts the loop and every such goroutine.
func (ep *Endpoint) Serve(ln net.Listener, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.ServeConn(conn)
		}()
	}
}

// ServeConn serves one inbound connection, tracked from its first
// byte. It reads the first frame and answers untargeted membership
// itself. An exchange request, or any frame addressed to a participant,
// goes to the node route names, whose endpoint takes the connection over
// and is credited with the frame's bytes; the node then owns the
// connection and the frame's pooled buffer. Anything else is Rejected.
func (ep *Endpoint) ServeConn(conn net.Conn) {
	c := ep.track(conn)
	_ = c.SetReadDeadline(time.Now().Add(ep.timeout))
	f, err := wireproto.ReadFrame(c, ep.lim.MaxFrameLen)
	if err != nil {
		if errors.Is(err, wireproto.ErrMalformed) {
			ep.counters.BadFrames.Add(1)
		}
		_ = c.Close()
		return
	}
	phase := requestPhase(f.Kind)
	routed := f.Target >= 0 || phase >= 0
	var nd *Node
	if routed && f.Epoch == ep.epoch {
		nd = ep.route(f.Target)
	}
	srv := ep // whoever serves the frame
	if nd != nil && nd.ep != ep {
		ep.live.remove(conn) // a host hands the connection to its node
		srv, c = nd.ep, nd.ep.track(conn)
	}
	srv.counters.BytesRecv.Add(int64(wireproto.FrameWireSize(len(f.Payload))))
	switch {
	case nd != nil && phase >= 0:
		nd.serveRequest(c, f, phase)
		return
	case nd != nil || !routed && f.Epoch == ep.epoch:
		srv.Answer(c, f)
	default:
		ep.counters.Rejected.Add(1)
		_ = c.Close()
	}
	f.Release()
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
	conn = ep.track(conn)
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
// holds genuinely open connections.
type trackedConn struct {
	net.Conn
	set *connSet
}

func (c *trackedConn) Close() error {
	c.set.remove(c.Conn)
	return c.Conn.Close()
}
