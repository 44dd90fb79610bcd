// Package mux is the virtual-node multiplexer: a runtime hosting
// hundreds to thousands of protocol participants inside one process
// behind a single listener — the piece that turns chiaroscurod from a
// demo daemon into a deployment unit for the paper's massive
// populations.
//
// A Host owns one TCP accept loop and routes inbound frames to its
// virtual nodes by the Version2 frame target (wireproto), so N
// co-located peers cost one listener and one accept goroutine instead
// of N. Untargeted (Version) frames are membership traffic — hello,
// view gossip, leave — handled centrally against the single shared
// address book. Expensive per-participant state is shared across the
// host: one schedule mirror (node.ScheduleSource) instead of one
// sim.Engine per peer, one address book, one scheme instance (whose
// randomizer pools and comb tables are already process-wide).
//
// Co-located pairs exchange over the host's own in-process connection
// (inprocConn), handed out by the host's Transport dialer: same frames,
// same accounting (both ends count wireproto.FrameWireSize), no TCP —
// so Figure 5(b) wire numbers stay honest while a single process
// sustains populations the kernel's socket limits would otherwise cap.
// The connection is a buffered byte stream with TCP's close semantics
// whose queues live in recycled frame-pool buffers and whose deadlines
// are stored values rather than runtime timers, so a finished exchange
// leaves nothing reachable: the host's heap is flat in the number of
// exchanges ever made, whatever the exchange timeout. Pairs on
// different hosts fall back to TCP with Version2 frames, which any
// single chiaroscurod daemon also accepts (bump-compatible).
//
// Determinism is untouched: virtual nodes run the same main protocol
// loop, mirror the same schedule, and a 12-peer population on one Host
// releases bit-identical centroids to 12 separate daemons and to the
// simulator (pinned by the e2e tests).
package mux

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/wireproto"
)

// Config provisions one Host.
type Config struct {
	// Listen is the shared listener address (default "127.0.0.1:0").
	Listen string
	// N is the total population size (across every host).
	N int
	// SeriesDim is the per-participant time-series length; every
	// participant's series must have it.
	SeriesDim int
	// Scheme is the shared threshold scheme (key material).
	Scheme homenc.Scheme
	// Proto is the shared protocol configuration (seed included).
	Proto core.Config
	// Epoch is the population epoch for the wire (0: derived from seed).
	Epoch uint64
	// Bootstrap is another host's (or daemon's) address; the host pumps
	// its roster there until the bootstrap's roster covers the
	// population ("" for the first/only host).
	Bootstrap string
	// ExchangeTimeout bounds the host's membership I/O and the read of
	// each inbound connection's first frame (default 30s).
	ExchangeTimeout time.Duration
}

// Host is one multiplexed listener and its virtual nodes.
type Host struct {
	cfg    Config
	lim    wireproto.Limits
	epoch  uint64
	digest uint64
	pack   homenc.PackedCodec

	ln   net.Listener
	addr string
	live connSet

	book   *node.Book
	sched  *node.ScheduleSource
	jitter *randx.Jitter // membership-pump pacing, seeded from the protocol seed

	counters wireproto.CounterSet // host-side membership traffic

	// mu guards nodes, and orders an in-process dial's wg.Add against
	// Close: stopped is set under it.
	mu    sync.Mutex
	nodes map[int]*node.Node

	pumpErr atomic.Value // error: sticky membership-pump refusal

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// NewHost validates the shared configuration (the same checks every
// virtual node would perform), starts the listener and, when a
// bootstrap address is configured, the membership pump.
func NewHost(cfg Config) (*Host, error) {
	if cfg.N < 2 {
		return nil, errors.New("mux: population must be at least 2")
	}
	if cfg.Scheme == nil {
		return nil, errors.New("mux: nil scheme")
	}
	if cfg.Scheme.NumShares() < cfg.N {
		return nil, fmt.Errorf("mux: scheme has %d key-shares for %d participants", cfg.Scheme.NumShares(), cfg.N)
	}
	if cfg.SeriesDim <= 0 {
		return nil, errors.New("mux: series dimension must be positive")
	}
	if cfg.Proto.Epsilon <= 0 {
		return nil, errors.New("mux: epsilon must be positive")
	}
	if cfg.Proto.Threshold != 0 {
		return nil, errors.New("mux: networked runs use the fixed iteration schedule; set Threshold to 0")
	}
	if len(kmeans.Compact(cfg.Proto.InitCentroids)) == 0 {
		return nil, kmeans.ErrNoCentroids
	}
	cfg.Proto = cfg.Proto.Normalize(cfg.N)
	if cfg.Proto.DissCycles <= 0 || cfg.Proto.DecryptCycles <= 0 {
		return nil, errors.New("mux: networked runs need fixed DissCycles and DecryptCycles")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.ExchangeTimeout <= 0 {
		cfg.ExchangeTimeout = 30 * time.Second
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = cfg.Proto.Seed ^ 0xC41A305C0
	}
	pack, err := core.PackingFor(cfg.Proto, cfg.N, cfg.SeriesDim, cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("mux: %w", err)
	}
	sched, err := node.NewScheduleSource(cfg.Proto, cfg.N, cfg.SeriesDim, cfg.Scheme, pack)
	if err != nil {
		return nil, err
	}
	fullDim := len(kmeans.Compact(cfg.Proto.InitCentroids)) * (cfg.SeriesDim + 1)
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	h := &Host{
		cfg:    cfg,
		lim:    wireproto.NewLimits(cfg.Scheme.CiphertextBytes(), fullDim, cfg.Scheme.Threshold(), cfg.N),
		epoch:  cfg.Epoch,
		digest: node.ConfigDigest(cfg.Proto, cfg.N, cfg.SeriesDim, pack),
		pack:   pack,
		ln:     ln,
		addr:   ln.Addr().String(),
		book:   node.NewBook(cfg.N),
		sched:  sched,
		nodes:  make(map[int]*node.Node),
		stop:   make(chan struct{}),
	}
	// Pump pacing draws from the seeded lineage; the stream is keyed by
	// the host's listen address so co-bootstrapping hosts decorrelate.
	h.jitter = randx.NewJitter(cfg.Proto.Seed^0x6A177E12, addrStream(h.addr))
	h.wg.Add(1)
	go h.serve()
	if cfg.Bootstrap != "" {
		h.wg.Add(1)
		go h.pump()
	}
	return h, nil
}

// Addr returns the shared listener address every virtual node
// advertises.
func (h *Host) Addr() string { return h.addr }

// RosterSize returns how many participants the shared book covers.
func (h *Host) RosterSize() int { return h.book.Size() }

// Counters snapshots the host's own membership-traffic counters; the
// routed exchange traffic is credited to the virtual nodes it was
// routed to.
func (h *Host) Counters() wireproto.Counters { return h.counters.Snapshot() }

// Err reports a sticky membership-pump failure — a bootstrap peer that
// refused this host's configuration digest. Virtual nodes then time out
// joining; this surfaces why.
func (h *Host) Err() error {
	if err, ok := h.pumpErr.Load().(error); ok {
		return err
	}
	return nil
}

// AddNode provisions one virtual node on this host. The caller supplies
// the participant-specific fields (Index, Series, Observer, fault
// policy, dialer, hooks); the host fills in everything shared — the
// listener address, book, schedule cursor, epoch and, when no dialer is
// given, the in-process transport. Nodes must be added before the run
// starts.
func (h *Host) AddNode(cfg node.Config) (*node.Node, error) {
	if h.stopped.Load() {
		return nil, errors.New("mux: host closed")
	}
	cfg.N = h.cfg.N
	cfg.Scheme = h.cfg.Scheme
	obs := cfg.Proto.Observer // participant-specific; everything else shared
	cfg.Proto = h.cfg.Proto
	cfg.Proto.Observer = obs
	cfg.External = true
	cfg.Addr = h.addr
	cfg.Book = h.book
	cfg.Schedule = h.sched.View()
	cfg.Epoch = h.epoch
	cfg.Bootstrap = ""
	if len(cfg.Series) != h.cfg.SeriesDim {
		return nil, fmt.Errorf("mux: node %d series has %d points, host expects %d", cfg.Index, len(cfg.Series), h.cfg.SeriesDim)
	}
	if cfg.Dialer == nil {
		cfg.Dialer = h.Transport()
	}
	nd, err := node.New(cfg)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev := h.nodes[cfg.Index]; prev != nil {
		_ = nd.Close()
		return nil, fmt.Errorf("mux: index %d already hosted", cfg.Index)
	}
	h.nodes[cfg.Index] = nd
	return nd, nil
}

// Nodes returns the hosted virtual nodes.
func (h *Host) Nodes() []*node.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*node.Node, 0, len(h.nodes))
	for _, nd := range h.nodes {
		out = append(out, nd)
	}
	return out
}

// Close stops the listener, closes every virtual node and live
// connection, and joins the host's goroutines.
func (h *Host) Close() error {
	h.mu.Lock()
	already := h.stopped.Swap(true)
	h.mu.Unlock()
	if already {
		return nil
	}
	close(h.stop)
	err := h.ln.Close()
	for _, nd := range h.Nodes() {
		_ = nd.Close()
	}
	h.live.closeAll()
	h.wg.Wait()
	return err
}

// serve accepts connections on the shared listener; each is routed by
// its first frame.
func (h *Host) serve() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.wg.Add(1)
		go h.serveConn(h.track(conn))
	}
}

// serveConn reads one frame and routes it: targeted frames go to the
// virtual node they name (which takes ownership of the connection — the
// remaining exchange legs travel on it — and of the frame's pooled
// buffer), untargeted frames are membership traffic the host answers
// itself against the shared book.
func (h *Host) serveConn(conn net.Conn) {
	defer h.wg.Done()
	_ = conn.SetReadDeadline(time.Now().Add(h.cfg.ExchangeTimeout))
	f, err := wireproto.ReadFrame(conn, h.lim.MaxFrameLen)
	if err != nil {
		if errors.Is(err, wireproto.ErrMalformed) {
			h.counters.BadFrames.Add(1)
		}
		_ = conn.Close()
		return
	}
	if f.Epoch == h.epoch && f.Target >= 0 {
		h.mu.Lock()
		nd := h.nodes[f.Target]
		h.mu.Unlock()
		if nd != nil {
			_ = conn.SetDeadline(time.Time{})
			nd.Deliver(conn, f)
			return
		}
	}
	// Everything below answers from decoded copies: the frame's buffer
	// goes back to the pool on every path.
	defer f.Release()
	if f.Epoch != h.epoch || f.Target >= 0 {
		h.counters.Rejected.Add(1)
		_ = conn.Close()
		return
	}

	h.counters.BytesRecv.Add(int64(wireproto.FrameWireSize(-1, len(f.Payload))))
	_ = conn.SetWriteDeadline(time.Now().Add(h.cfg.ExchangeTimeout))
	switch f.Kind {
	case wireproto.KindHello:
		hello, err := wireproto.UnmarshalHello(f.Payload, h.lim)
		if err != nil || int(hello.N) != h.cfg.N || int(hello.Index) >= h.cfg.N {
			h.counters.Rejected.Add(1)
			_ = conn.Close()
			return
		}
		if hello.Digest != 0 && hello.Digest != h.digest {
			h.counters.Rejected.Add(1)
			_ = h.writeFrame(conn, wireproto.KindReject, wireproto.MarshalReject(wireproto.Reject{
				Reason: fmt.Sprintf("config digest %016x, want %016x (check population/k/frac-bits/pack-slots)", hello.Digest, h.digest),
			}))
			_ = conn.Close()
			return
		}
		h.book.Learn(int(hello.Index), hello.Addr)
		_ = h.writeFrame(conn, wireproto.KindHelloAck, wireproto.MarshalView(h.book.Roster()))
		_ = conn.Close()

	case wireproto.KindResume:
		// A crash-recovered peer re-announcing itself: validate like a
		// hello, then reinstate it with every hosted virtual node — each
		// keeps its own suspicion overlay over the shared book, and all
		// of them must stop fast-failing the returned peer.
		r, err := wireproto.UnmarshalResume(f.Payload, h.lim)
		if err != nil || int(r.N) != h.cfg.N || int(r.Index) >= h.cfg.N {
			h.counters.Rejected.Add(1)
			_ = conn.Close()
			return
		}
		if r.Digest != 0 && r.Digest != h.digest {
			h.counters.Rejected.Add(1)
			_ = h.writeFrame(conn, wireproto.KindReject, wireproto.MarshalReject(wireproto.Reject{
				Reason: fmt.Sprintf("config digest %016x, want %016x (check population/k/frac-bits/pack-slots)", r.Digest, h.digest),
			}))
			_ = conn.Close()
			return
		}
		h.book.Learn(int(r.Index), r.Addr)
		h.mu.Lock()
		nodes := make([]*node.Node, 0, len(h.nodes))
		//lint:orderfree every hosted node is reinstated; order is not protocol state
		for _, nd := range h.nodes {
			nodes = append(nodes, nd)
		}
		h.mu.Unlock()
		for _, nd := range nodes {
			nd.Reinstate(int(r.Index))
		}
		h.counters.Resumed.Add(1)
		_ = h.writeFrame(conn, wireproto.KindResumeAck, wireproto.MarshalView(h.book.Roster()))
		_ = conn.Close()

	case wireproto.KindView:
		items, err := wireproto.UnmarshalView(f.Payload, h.lim)
		if err != nil {
			h.counters.Rejected.Add(1)
			_ = conn.Close()
			return
		}
		h.book.Merge(items)
		_ = h.writeFrame(conn, wireproto.KindView, wireproto.MarshalView(h.book.Roster()))
		_ = conn.Close()

	case wireproto.KindLeave:
		l, err := wireproto.UnmarshalLeave(f.Payload)
		if err == nil && int(l.Index) < h.cfg.N {
			h.book.MarkGone(int(l.Index))
		}
		_ = conn.Close()

	default:
		h.counters.Rejected.Add(1)
		_ = conn.Close()
	}
}

func (h *Host) writeFrame(conn net.Conn, kind byte, payload []byte) error {
	err := wireproto.WriteFrame(conn, kind, h.epoch, payload)
	if err == nil {
		h.counters.BytesSent.Add(int64(wireproto.FrameWireSize(-1, len(payload))))
	}
	return err
}

// pump is the host's membership loop: it announces itself to the
// bootstrap (digest handshake) and pushes/merges rosters until the
// bootstrap's reply to a roster push covers the population, so every
// co-located participant joins through one connection stream instead of
// N hello storms. This host's own book filling up is not enough: a
// local AddNode landing during the back-off completes it without the
// bootstrap having heard of that participant.
func (h *Host) pump() {
	defer h.wg.Done()
	for idle := 0; ; idle++ {
		ok, done := h.pumpOnce()
		if !ok || done {
			return // rejected, shut down, or the bootstrap has everyone
		}
		d := 10 * time.Millisecond << min(idle, 6)
		t := time.NewTimer(d/2 + h.jitter.DurationN(d/2+1))
		select {
		case <-h.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// pumpOnce performs one membership round trip with the bootstrap: a
// digest-checked hello announcing one local participant, then a view
// push sharing every local address. ok is false on a terminal refusal
// or shutdown; done reports that the bootstrap's reply to the push
// named the whole population.
func (h *Host) pumpOnce() (ok, done bool) {
	if h.stopped.Load() {
		return false, false
	}
	conn, err := net.DialTimeout("tcp", h.cfg.Bootstrap, h.cfg.ExchangeTimeout)
	if err != nil {
		return true, false
	}
	conn = h.track(conn)
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(h.cfg.ExchangeTimeout))
	first := -1
	h.mu.Lock()
	for idx := range h.nodes {
		if first < 0 || idx < first {
			first = idx
		}
	}
	h.mu.Unlock()
	if first < 0 {
		return true, false // nothing to announce yet
	}
	if err := h.writeFrame(conn, wireproto.KindHello, wireproto.MarshalHello(wireproto.Hello{
		Index: uint32(first), Addr: h.addr, N: uint32(h.cfg.N), Digest: h.digest,
	})); err != nil {
		return true, false
	}
	f, err := wireproto.ReadFrame(conn, h.lim.MaxFrameLen)
	if err != nil {
		return true, false
	}
	defer f.Release()
	h.counters.BytesRecv.Add(int64(wireproto.FrameWireSize(f.Target, len(f.Payload))))
	if f.Kind == wireproto.KindReject {
		if r, rerr := wireproto.UnmarshalReject(f.Payload); rerr == nil {
			h.pumpErr.Store(fmt.Errorf("%w: bootstrap %s: %s", node.ErrConfigMismatch, h.cfg.Bootstrap, r.Reason))
		}
		return false, false
	}
	if f.Kind == wireproto.KindHelloAck {
		if items, err := wireproto.UnmarshalView(f.Payload, h.lim); err == nil {
			h.book.Merge(items)
		}
	}
	// Second leg: push the full local roster so the far side learns
	// every co-located participant, not just the announcer.
	conn2, err := net.DialTimeout("tcp", h.cfg.Bootstrap, h.cfg.ExchangeTimeout)
	if err != nil {
		return true, false
	}
	conn2 = h.track(conn2)
	defer conn2.Close()
	_ = conn2.SetDeadline(time.Now().Add(h.cfg.ExchangeTimeout))
	if err := h.writeFrame(conn2, wireproto.KindView, wireproto.MarshalView(h.book.Roster())); err != nil {
		return true, false
	}
	f2, err := wireproto.ReadFrame(conn2, h.lim.MaxFrameLen)
	if err != nil {
		return true, false
	}
	defer f2.Release()
	if f2.Kind == wireproto.KindView {
		h.counters.BytesRecv.Add(int64(wireproto.FrameWireSize(f2.Target, len(f2.Payload))))
		if items, err := wireproto.UnmarshalView(f2.Payload, h.lim); err == nil {
			h.book.Merge(items)
			return true, covers(items, h.cfg.N)
		}
	}
	return true, false
}

// covers reports whether a roster names every participant of a
// population of n.
func covers(items []wireproto.ViewItem, n int) bool {
	seen, count := make([]bool, n), 0
	for _, it := range items {
		if idx := int(it.Index); idx < n && !seen[idx] {
			seen[idx] = true
			count++
		}
	}
	return count == n
}

// Transport returns the host's dialer: co-located destinations (the
// host's own listener address) get the host's in-process connection — a
// buffered byte stream that costs no socket, no timer and, once closed,
// no memory — whose server end feeds the same routing path as an
// accepted TCP connection; anything else is dialed over TCP. Byte
// accounting is unchanged either way — both ends count the frames they
// write and read.
func (h *Host) Transport() node.Dialer { return hostDialer{h} }

type hostDialer struct{ h *Host }

func (d hostDialer) Dial(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	h := d.h
	if addr == h.addr {
		// The serve goroutine is registered under the lock Close sets
		// stopped under: Close's wg.Wait never races this Add.
		h.mu.Lock()
		if h.stopped.Load() {
			h.mu.Unlock()
			return nil, errors.New("mux: host closed")
		}
		h.wg.Add(1)
		h.mu.Unlock()
		client, server := newInprocPair()
		go h.serveConn(h.track(server))
		return client, nil
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// connSet tracks the host's open connections for prompt shutdown
// (mirrors the node runtime's set; in-process ends additionally get
// closed by the virtual node that took ownership — double close is
// harmless).
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

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

func (cs *connSet) closeAll() {
	cs.mu.Lock()
	cs.closed = true
	conns := cs.conns
	cs.conns = nil
	cs.mu.Unlock()
	for c := range conns {
		_ = c.Close()
	}
}

type trackedConn struct {
	net.Conn
	h *Host
}

func (c *trackedConn) Close() error {
	c.h.live.remove(c.Conn)
	return c.Conn.Close()
}

func (h *Host) track(conn net.Conn) net.Conn {
	if !h.live.add(conn) {
		_ = conn.Close()
	}
	return &trackedConn{Conn: conn, h: h}
}

// addrStream folds an address string into a jitter stream id (FNV-1a).
func addrStream(addr string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	return h.Sum64()
}
