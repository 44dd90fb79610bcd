// Package mux is the virtual-node multiplexer: a runtime hosting
// hundreds to thousands of protocol participants inside one process
// behind a single listener — the piece that turns chiaroscurod from a
// demo daemon into a deployment unit for the paper's massive
// populations.
//
// A Host owns one TCP listener, served by its node.Endpoint — the one
// inbound path a standalone node has too — which routes frames to the
// virtual nodes by their target field (wireproto), so N co-located peers
// cost one listener and one accept goroutine instead of N. Untargeted
// frames are membership traffic — hello, resume, view gossip, leave —
// answered against the single shared address book. A connection is
// tracked by the endpoint of the node serving it alone. Expensive
// per-participant state is shared across the host: one schedule mirror
// (node.ScheduleSource) instead of one sim.Engine per peer, one address
// book, one scheme instance (whose randomizer pools and comb tables are
// already process-wide). NewHost takes the participants' shared
// node.Config and provisions it through node.Provision, as each of its
// virtual nodes does.
//
// Launch is the one place a population is laid out: from the shared
// node.Config and a slice of participant indices it builds one TCP
// listener per participant or Hosts of a given size, chains their
// bootstraps, hands the observer to the first participant, and runs,
// counts and closes them together (Population). The Job API's Networked
// mode, the soak harness and chiaroscurod all stand their participants
// up through it.
//
// Co-located pairs exchange over the host's own in-process connection
// (inprocConn), handed out by the host's Transport dialer: same frames,
// same accounting (both ends count wireproto.FrameWireSize), no TCP —
// so Figure 5(b) wire numbers stay honest while a single process
// sustains populations the kernel's socket limits would otherwise cap.
// The connection is a buffered byte stream with TCP's close semantics
// whose bytes live in recycled frame-pool buffers and whose two queues
// are a pooled pair: once both ends are closed and no call waits on it,
// the pair goes back to the pool for the next dial, and an end that
// outlives it is turned stale by the pair's generation. Its deadlines
// are stored values: a blocked call waits on its queue's condition
// variable and, while it waits, is an entry of the host's one deadline
// sweeper (a heap of blocked calls under a single runtime timer), so
// blocking allocates nothing and a finished exchange leaves nothing
// reachable but the pooled pair: the host's heap is flat in the number
// of exchanges ever made, whatever the exchange timeout. Pairs on
// different hosts fall back to TCP with the same frames, which any
// single chiaroscurod daemon also accepts.
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

	"chiaroscuro/internal/node"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/wireproto"
)

// Host is one multiplexed listener and its virtual nodes.
type Host struct {
	seriesDim int    // every hosted participant's series length
	bootstrap string // where the membership pump announces ("": none)
	// shared is what every hosted node shares, as node.Provision checked
	// and defaulted it, and dep what it derived from it.
	shared node.Config
	dep    node.Deployment

	ln   net.Listener
	addr string
	ep   *node.Endpoint // connections, membership traffic

	book   *node.Book
	sched  *node.ScheduleSource
	jitter *randx.Jitter // membership-pump pacing, seeded from the protocol seed

	counters wireproto.CounterSet // host-side membership traffic

	sweep sweeper // the deadlines of calls blocked on in-process connections

	// mu guards nodes, and orders an in-process dial's wg.Add against
	// Close: stopped is set under it.
	mu    sync.Mutex
	nodes map[int]*node.Node

	pumpErr atomic.Value // error: sticky membership-pump refusal

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// NewHost provisions the shared configuration of participants whose
// series have seriesDim points exactly as each virtual node does
// (node.Provision), starts the listener on shared.Listen and, when
// shared.Bootstrap names another host (or daemon), the membership pump,
// which pushes the host's roster there until the bootstrap's covers the
// population. shared.ExchangeTimeout bounds the host's membership I/O
// and the read of each inbound connection's first frame.
func NewHost(shared node.Config, seriesDim int) (*Host, error) {
	dep, err := node.Provision(&shared, seriesDim)
	if err != nil {
		return nil, err
	}
	sched, err := node.NewScheduleSource(shared.Proto, shared.N, seriesDim, shared.Scheme, dep.Pack)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", shared.Listen)
	if err != nil {
		return nil, err
	}
	h := &Host{
		seriesDim: seriesDim,
		bootstrap: shared.Bootstrap,
		shared:    shared,
		dep:       dep,
		ln:        ln,
		addr:      ln.Addr().String(),
		book:      node.NewBook(shared.N),
		sched:     sched,
		nodes:     make(map[int]*node.Node),
		stop:      make(chan struct{}),
	}
	h.ep = node.NewEndpoint(&h.shared, dep, h.book, &h.counters, h.reinstate, h.route)
	// Pump pacing draws from the seeded lineage; the stream is keyed by
	// the host's listen address so co-bootstrapping hosts decorrelate.
	h.jitter = randx.NewJitter(shared.Proto.Seed^0x6A177E12, addrStream(h.addr))
	h.wg.Add(1)
	go h.ep.Serve(ln, &h.wg)
	if h.bootstrap != "" {
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
// listener address, book, schedule cursor and, when no dialer is
// given, the in-process transport. Nodes must be added before the run
// starts.
func (h *Host) AddNode(cfg node.Config) (*node.Node, error) {
	if h.stopped.Load() {
		return nil, errors.New("mux: host closed")
	}
	cfg.N = h.shared.N
	cfg.Scheme = h.shared.Scheme
	obs := cfg.Proto.Observer // participant-specific; everything else shared
	cfg.Proto = h.shared.Proto
	cfg.Proto.Observer = obs
	cfg.Addr = h.addr
	cfg.Book = h.book
	cfg.Schedule = h.sched.View()
	cfg.Bootstrap = ""
	if len(cfg.Series) != h.seriesDim {
		return nil, fmt.Errorf("mux: node %d series has %d points, host expects %d", cfg.Index, len(cfg.Series), h.seriesDim)
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
	h.ep.CloseAll()
	h.wg.Wait()
	h.sweep.stop()
	return err
}

// route names the hosted node a frame addressed to target goes to.
func (h *Host) route(target int) *node.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[target]
}

// reinstate lifts a returning peer's suspicion eviction on every hosted
// node: each keeps its own overlay over the shared book, and all of
// them must stop fast-failing the peer.
func (h *Host) reinstate(peer int) {
	for _, nd := range h.Nodes() {
		nd.Reinstate(peer)
	}
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
	_, err := h.ep.Ask(-1, h.bootstrap, h.shared.ExchangeTimeout, wireproto.KindHello, wireproto.MarshalHello(wireproto.Hello{
		Index: uint32(first), Addr: h.addr, N: uint32(h.shared.N), Digest: h.dep.Digest,
	}))
	if errors.Is(err, node.ErrConfigMismatch) {
		h.pumpErr.Store(err)
		return false, false
	}
	if err != nil {
		return true, false
	}
	// Second leg: push the full local roster so the far side learns
	// every co-located participant, not just the announcer.
	items, err := h.ep.Ask(-1, h.bootstrap, h.shared.ExchangeTimeout, wireproto.KindView, wireproto.MarshalView(h.book.Roster()))
	return true, err == nil && covers(items, h.shared.N)
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
// buffered byte stream that costs no socket and no timer, and once
// closed leaves its two small ends to the garbage collector and its
// queues to the next dial — whose server end takes the path an accepted
// TCP connection takes (node.Endpoint.ServeConn); anything else is
// dialed over TCP.
// Byte accounting is unchanged either way — both ends count the frames
// they write and read.
func (h *Host) Transport() node.Dialer { return hostDialer{h} }

type hostDialer struct{ h *Host }

func (d hostDialer) Dial(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	h := d.h
	if addr != h.addr {
		return net.DialTimeout("tcp", addr, timeout)
	}
	// The serve goroutine is registered under the lock Close sets
	// stopped under: Close's wg.Wait never races this Add. A hosted
	// destination's endpoint serves the connection, the host's any other.
	h.mu.Lock()
	if h.stopped.Load() {
		h.mu.Unlock()
		return nil, errors.New("mux: host closed")
	}
	ep := h.ep
	if nd := h.nodes[peer]; nd != nil {
		ep = nd.Endpoint()
	}
	h.wg.Add(1)
	h.mu.Unlock()
	client, server := newInprocPair(&h.sweep)
	go func() {
		defer h.wg.Done()
		ep.ServeConn(server)
	}()
	return client, nil
}

// addrStream folds an address string into a jitter stream id (FNV-1a).
func addrStream(addr string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	return h.Sum64()
}
