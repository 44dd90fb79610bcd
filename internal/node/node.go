// Package node is the networked Chiaroscuro peer runtime: it drives
// the full encrypted Diptych protocol — assignment, the encrypted sum of
// the means with every noise-share folded in, noise-surplus correction,
// epidemic threshold decryption, centroid update — over real TCP
// connections framed by internal/wireproto.
//
// Determinism model. Every participant is provisioned with the same
// seed and protocol parameters, mirrors the simulation engine
// (sim.Engine.DrawCycle) to derive the identical per-cycle exchange
// schedule, and executes its own participations strictly in schedule
// order for as long as an exchange can change its state. Exchanges that
// share no participant commute, and exchanges sharing one are ordered
// identically on both sides, so the distributed execution is
// conflict-serializable in the schedule order: a networked run releases
// bit-identical centroids to an in-memory simulation of the same seed
// and parameters, every iteration: each participant continues from its
// own decoded view, which is the one elected vector's release for all
// of them. Every phase is one walk over the participant's own slots
// (runPhase). The main loop decides only when a responder slot opens,
// and whoever holds the slot's request serves it (respond,
// servePassive); while an exchange can change the state, one slot is
// open at a time. The one stretch that leaves schedule order is the
// tail of the epidemic decryption: a participant holding τ key-shares
// is read-only until the phase ends, so its remaining exchanges commute
// with one another as well — the walk opens the rest of its responder
// slots all at once (openTail), serves them the moment their requests
// arrive and goes on through its initiator slots in order, which no
// participant's state can tell from the serial execution.
//
// Exchange shape. Each scheduled exchange is a three-leg round trip on
// one TCP connection: REQ (initiator state) → RESP (responder pre-merge
// state) → FIN (commit). The initiator applies its half after RESP; the
// responder applies its half only after a clean FIN. A responder that
// dies after RESP leaves the initiator with exactly the half-completed
// state of the paper's Section 6.1.5 churn model; a FIN that never
// arrives (initiator crash, or modeled churn's abort flag) leaves the
// responder untouched the same way. All three phases run this one
// exchange (initiateLegs, respondLegs); a phase only supplies what its
// legs carry, how the peer's leg is vetted and which eesum.Participant
// transition commits it (its half). A phase's legs are numbered from
// its request kind: REQ, RESP and FIN are base, base+1 and base+2
// (0x10, 0x20 and 0x30 for the sum, the dissemination and the
// decryption).
//
// Membership. Every listener, a node's or a mux.Host's, serves through
// an Endpoint, which answers the hello, resume, view and leave round
// trips itself and routes exchange requests to the node that serves
// them; that node's endpoint alone tracks the connection.
package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/wireproto"
)

// Dialer opens connections to peers. The default dials TCP directly;
// fault-injection layers (internal/faultnet) substitute their own.
// peer is the destination's population index, or -1 for membership
// traffic (hello/view gossip) whose destination index is unknown.
type Dialer interface {
	Dial(peer int, addr string, timeout time.Duration) (net.Conn, error)
}

// tcpDialer is the default Dialer: a plain TCP dial.
type tcpDialer struct{}

func (tcpDialer) Dial(_ int, addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Exchange legs, in wire order. CrashHook and the fault plans speak
// this numbering.
const (
	LegReq  = 0 // initiator's request push
	LegResp = 1 // responder's pre-merge state
	LegFin  = 2 // initiator's commit
)

// CrashHook, when set, is consulted before sending any exchange leg;
// returning true crashes the node's side of the exchange at exactly
// that point (the leg is never written, the connection dies silently).
// A crash before LegFin reproduces the half-completed-exchange state of
// the paper's Section 6.1.5 churn model — the generalization of the
// original fin-leg test hook.
type CrashHook func(leg, phase, iter, cycle, seq int) bool

// Policy is the node-side fault-tolerance policy (the public API's
// Options.FaultPolicy). The zero value reproduces the unhardened
// behavior: one attempt per exchange, no suspicion.
type Policy struct {
	// MaxRetries is how many additional attempts a failed exchange leg
	// gets before the slot is abandoned. Only failures strictly before
	// this side's state merge are retried — a committed half is never
	// re-applied, which is what keeps retried runs bit-identical to the
	// simulator on the same completed-exchange trace.
	MaxRetries int
	// Backoff is the initial retry backoff; it doubles per attempt
	// (capped at 8×) with ±50% jitter. Defaults to 25ms when
	// MaxRetries > 0.
	Backoff time.Duration
	// SuspicionK evicts a peer after this many consecutive
	// initiator-side exchange failures (0 = never). Later exchanges to
	// an evicted peer fast-fail instead of burning their deadline; a
	// resume announcement from the peer reinstates it.
	SuspicionK int
}

// Config provisions one participant.
type Config struct {
	Index  int               // population index (0-based; key-share Index+1)
	N      int               // population size
	Series timeseries.Series // this participant's own time-series
	Scheme homenc.Scheme     // shared threshold scheme (key material)
	Proto  core.Config       // shared protocol parameters (seed included)

	Listen    string // listen address (default "127.0.0.1:0")
	Bootstrap string // address of any live peer ("" for the first node)

	// Book, when set, makes the node a virtual node hosted behind a
	// shared listener (mux.Host), and is the host's address book, shared
	// with the co-located participants. A hosted node opens no listener
	// and runs no membership loops of its own — the host's endpoint
	// routes its frames to it and handles hello/view gossip, and Join
	// passively waits for the shared book to cover the population. It
	// registers itself in the book via AddLocal. Nil: the node listens on
	// its own and owns a private book.
	Book *Book
	// Addr is the shared listener's address a hosted node advertises
	// (required when Book is set).
	Addr string

	// Schedule, when set, is this participant's cursor over a shared
	// ScheduleSource (one schedule mirror per process instead of one
	// sim.Engine per participant). Nil: the node builds a private
	// source. Views of one source MUST all come from configurations that
	// would build identical private sources.
	Schedule *ScheduleView

	// ExchangeTimeout bounds every blocking step of an exchange: the
	// dial, the wait for a scheduled request, and the response read.
	// FinTimeout bounds only the responder's wait for the commit leg
	// (shorter under modeled churn so half-completed exchanges resolve
	// quickly). JoinTimeout bounds the roster bootstrap. ViewInterval
	// paces the background address-book gossip (<0 disables).
	ExchangeTimeout time.Duration
	FinTimeout      time.Duration
	JoinTimeout     time.Duration
	ViewInterval    time.Duration

	// Policy hardens the node against hostile networks: exchange
	// retries with capped jittered exponential backoff, and peer
	// suspicion. The zero value keeps the single-attempt behavior.
	Policy Policy

	// Dialer substitutes the connection layer (nil: plain TCP). The
	// fault-injection harness wires internal/faultnet in here.
	Dialer Dialer

	// CrashHook, when set, crashes exchanges at chosen legs (tests and
	// chaos harnesses).
	CrashHook CrashHook

	// State, when set, is the node's durable crash-recovery journal
	// (OpenState). The node verifies it belongs to this provisioning,
	// checkpoints every exchange commit into it (append + fsync before
	// the initiator's FIN), and — when the journal already carries
	// protocol records — resumes the run from the last durable commit
	// instead of starting over. The node owns the State from here on;
	// Close flushes and closes it.
	State *State

	// CommitHook, when set, is consulted after every exchange commit
	// point (merge applied and journaled, initiator's FIN not yet sent);
	// returning true kills the whole node right there — the test- and
	// chaos-harness stand-in for kill −9 at a commit point.
	CommitHook CommitHook
}

// CommitHook observes exchange commit points; see Config.CommitHook.
type CommitHook func(phase, iter, cycle, seq int, initiator bool) bool

// Result is the participant's own outcome of a networked run.
type Result struct {
	Centroids    []timeseries.Series // this participant's released view (compacted)
	Traces       []core.IterationTrace
	TotalEpsilon float64
	Converged    bool    // θ stopped the run
	AvgMessages  float64 // scheduled messages per participant (mirror accounting)
	AvgBytes     float64 // scheduled bytes per participant (mirror accounting)
	Counters     wireproto.Counters
}

// Node is one live networked participant.
type Node struct {
	cfg   Config
	env   *eesum.Env // the machine's scheme, slot layout, worker bound and sum epoch bound
	lim   wireproto.Limits
	epoch uint64

	ln   net.Listener // nil for hosted nodes
	addr string
	ep   *Endpoint // connections, framing accounting, membership

	book   *Book
	reg    *registry
	serial tailSlot // the responder slot the main loop opens in slot order (respond)

	sched    *ScheduleView // cursor over the schedule mirror (never executes exchanges)
	digest   uint64        // shared-config digest carried in hellos
	protoRNG *randx.RNG    // base noise source; per-node streams split off
	jitter   *randx.Jitter // timing-only draws (backoff, hello targets), seeded per node
	acct     *dp.Accountant

	counters wireproto.CounterSet
	iterNow  atomic.Int64 // current iteration, for metrics
	phaseNow atomic.Int64 // current phase rank, for metrics

	// state is the durable crash-recovery journal (nil: volatile node);
	// stateErr is the first journal write failure, sticky — it halts the
	// node, and RunContext reports it. commitMu serializes exchange
	// commits (counter, journal append, commit hook) and guards
	// stateErr: in a settled tail they come from several goroutines.
	// resume/resuming/resumeAnn are decoded from the journal at attach:
	// the point to re-enter the run at, and the KindResume announcement
	// a relaunch sends instead of a fresh hello. resume is touched only
	// by the main protocol loop.
	state     *State
	commitMu  sync.Mutex
	stateErr  error
	resume    *resumePoint
	resuming  bool
	resumeAnn wireproto.Resume

	// suspect counts consecutive initiator-side failures per peer for
	// the suspicion policy; evicted is the node's own eviction overlay
	// (a book, which co-located siblings may share, records only
	// graceful leaves). Guarded by suspMu: the
	// main loop writes strikes, but a resume announcement arriving on a
	// connection goroutine reinstates peers, and responder waits consult
	// the eviction state to release early.
	suspMu  sync.Mutex
	suspect map[int]int
	evicted map[int]bool

	// joinReject is a typed handshake refusal received during Join
	// (config-digest mismatch). Touched only by the Join goroutine.
	joinReject error

	stop      chan struct{}
	stopped   atomic.Bool
	haltOnce  sync.Once
	closeOnce sync.Once
	lnErr     error // the listener's close error, set by halt
	wg        sync.WaitGroup
}

// Deployment is what every participant of a population derives alike
// from the shared provisioning (Provision).
type Deployment struct {
	Pack   homenc.PackedCodec // the slot layout ciphertext vectors travel in
	Lim    wireproto.Limits   // the wire decoders' bounds
	Digest uint64             // ConfigDigest, compared by the hello handshake
	Epoch  uint64             // the population epoch every frame carries
}

// Provision validates what every participant of a population shares —
// N, Scheme, Proto, Listen, ExchangeTimeout and Dialer of cfg —
// for series of seriesDim points, fills in their defaults, normalizes
// Proto exactly as the simulator does, derives the phase lengths Proto
// leaves zero (core.PhaseCycles), and derives the Deployment.
// New and mux.NewHost both provision through it, so a host performs
// exactly the checks each of its virtual nodes does.
func Provision(cfg *Config, seriesDim int) (Deployment, error) {
	if seriesDim <= 0 {
		return Deployment{}, errors.New("node: empty series")
	}
	if err := cfg.Proto.Validate(cfg.N, seriesDim, cfg.Scheme); err != nil {
		return Deployment{}, err
	}
	cfg.Proto = cfg.Proto.Normalize(cfg.N)
	// No participant can observe global convergence, so every phase has a
	// fixed length; the ones left zero come from the convergence model,
	// which every peer evaluates on the same shared parameters.
	diss, dec := core.PhaseCycles(cfg.N, cfg.Scheme.Threshold(), cfg.Proto.Churn, cfg.Proto.Newscast)
	if cfg.Proto.DissCycles <= 0 {
		cfg.Proto.DissCycles = diss
	}
	if cfg.Proto.DecryptCycles <= 0 {
		cfg.Proto.DecryptCycles = dec
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.ExchangeTimeout <= 0 {
		cfg.ExchangeTimeout = 30 * time.Second
	}
	if cfg.Dialer == nil {
		cfg.Dialer = tcpDialer{}
	}

	// Packing layout and plaintext-headroom pre-flight: the same shared
	// derivation the simulator performs, so every peer agrees on the
	// slot layout (and therefore on ciphertext vector lengths).
	pack, err := core.PackingFor(cfg.Proto, cfg.N, seriesDim, cfg.Scheme)
	if err != nil {
		return Deployment{}, fmt.Errorf("node: %w", err)
	}
	// fullDim bounds the wire decoders: the correction vectors of the
	// dissemination phase stay unpacked (cleartext per-variable floats),
	// so MaxDim must admit the full k·(n+1) length even when the
	// ciphertext vectors travel packed. Exact per-phase lengths are
	// enforced at the use sites (validSumState, validDecLeg, the
	// corVec length checks).
	fullDim := len(kmeans.Compact(cfg.Proto.InitCentroids)) * (seriesDim + 1)
	return Deployment{
		Pack:   pack,
		Lim:    wireproto.NewLimits(cfg.Scheme.CiphertextBytes(), fullDim, cfg.Scheme.Threshold(), cfg.N),
		Digest: ConfigDigest(cfg.Proto, cfg.N, seriesDim, pack),
		Epoch:  cfg.Proto.Seed ^ 0xC41A305C0,
	}, nil
}

// New provisions the participant (Provision), validates and defaults
// its own configuration, and starts the listener.
func New(cfg Config) (*Node, error) {
	dep, err := Provision(&cfg, len(cfg.Series))
	if err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= cfg.N {
		return nil, fmt.Errorf("node: index %d out of range for population %d", cfg.Index, cfg.N)
	}
	if cfg.Book != nil {
		if cfg.Addr == "" {
			return nil, errors.New("node: hosted node needs the shared listener address")
		}
		// The host owns the listener and the membership loops.
		cfg.ViewInterval = -1
	}
	if cfg.FinTimeout <= 0 {
		cfg.FinTimeout = cfg.ExchangeTimeout
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 30 * time.Second
	}
	if cfg.ViewInterval == 0 {
		cfg.ViewInterval = 500 * time.Millisecond
	}
	if cfg.Policy.MaxRetries < 0 || cfg.Policy.Backoff < 0 || cfg.Policy.SuspicionK < 0 {
		return nil, fmt.Errorf("node: negative fault policy %+v", cfg.Policy)
	}
	if cfg.Policy.MaxRetries > 0 && cfg.Policy.Backoff == 0 {
		cfg.Policy.Backoff = 25 * time.Millisecond
	}

	nd := &Node{
		cfg:      cfg,
		env:      &eesum.Env{Scheme: cfg.Scheme, Pack: dep.Pack, Workers: cfg.Proto.Workers, SumEpochs: core.HeadroomNeeded(cfg.Proto.Exchanges)},
		lim:      dep.Lim,
		epoch:    dep.Epoch,
		digest:   dep.Digest,
		addr:     cfg.Addr,
		protoRNG: core.ProtocolRNG(cfg.Proto.Seed),
		jitter:   randx.NewJitter(cfg.Proto.Seed^0x6A177E12, uint64(cfg.Index)),
		acct:     &dp.Accountant{Cap: cfg.Proto.Epsilon * (1 + 1e-9)},
		suspect:  make(map[int]int),
		evicted:  make(map[int]bool),
		stop:     make(chan struct{}),
	}
	if cfg.Book == nil {
		// A relaunch first tries the address its journal recorded: Go
		// listeners set SO_REUSEADDR, so rebinding the dead process's
		// port works immediately and every peer's address book stays
		// valid across the kill window. Any bind failure (the port went
		// to someone else) falls back to the configured address.
		if saved := cfg.State.savedAddr(); saved != "" {
			if ln, err := net.Listen("tcp", saved); err == nil {
				nd.ln = ln
				nd.addr = ln.Addr().String()
			}
		}
		if nd.ln == nil {
			ln, err := net.Listen("tcp", cfg.Listen)
			if err != nil {
				return nil, err
			}
			nd.ln = ln
			nd.addr = ln.Addr().String()
		}
	}
	nd.sched = cfg.Schedule
	if nd.sched == nil {
		src, err := NewScheduleSource(cfg.Proto, cfg.N, len(cfg.Series), cfg.Scheme, dep.Pack)
		if err != nil {
			if nd.ln != nil {
				_ = nd.ln.Close()
			}
			return nil, err
		}
		nd.sched = src.View()
	}
	if hook := cfg.Proto.Observer.Churn; hook != nil {
		// The iteration is recovered from the cumulative cycle index, so
		// the observation is identical whether this participant or a
		// faster co-located one first demands the cycle.
		nd.sched.src.bindChurn(func(iter, cycle, down int) {
			hook(iter, cycle, down, core.ChurnModel)
		})
	}
	nd.book = cfg.Book
	if nd.book == nil {
		nd.book = NewBook(cfg.N)
	}
	nd.book.AddLocal(cfg.Index, nd.addr)
	nd.ep = NewEndpoint(&cfg, dep, nd.book, &nd.counters, nd.Reinstate, nd.route)
	nd.reg = newRegistry(nd.stop)
	if cfg.State != nil {
		if err := nd.attachState(cfg.State); err != nil {
			if nd.ln != nil {
				_ = nd.ln.Close()
			}
			return nil, err
		}
	}
	if !nd.hosted() {
		nd.wg.Add(1)
		go nd.ep.Serve(nd.ln, &nd.wg)
	}
	if cfg.ViewInterval > 0 {
		nd.wg.Add(1)
		go nd.viewLoop()
	}
	return nd, nil
}

// hosted reports whether the node runs on a mux.Host (Config.Book).
func (nd *Node) hosted() bool { return nd.cfg.Book != nil }

// Addr returns the node's listen address.
func (nd *Node) Addr() string { return nd.addr }

// Index returns the node's population index.
func (nd *Node) Index() int { return nd.cfg.Index }

// Counters returns a snapshot of the node's wire counters.
func (nd *Node) Counters() wireproto.Counters { return nd.counters.Snapshot() }

// Progress returns the current iteration and phase rank, for metrics.
func (nd *Node) Progress() (iter, phase int64) {
	return nd.iterNow.Load(), nd.phaseNow.Load()
}

// PhaseCycles returns the fixed lengths of the dissemination and
// decryption phases the participant runs, as provisioned or derived
// (Provision).
func (nd *Node) PhaseCycles() (diss, dec int) {
	return nd.cfg.Proto.DissCycles, nd.cfg.Proto.DecryptCycles
}

// RosterSize returns how many participants the address book covers.
func (nd *Node) RosterSize() int { return nd.book.Size() }

// ErrConfigMismatch marks a handshake refused because the peers were
// provisioned with different shared protocol parameters (the
// config-digest check of the hello exchange).
var ErrConfigMismatch = errors.New("node: peer configuration mismatch")

// Join fills the address book: the node announces itself to the
// bootstrap peer (when it has one) and polls known peers until it can
// dial the entire population or the join timeout passes. Sweeps are
// paced by a jittered exponential backoff (reset whenever the roster
// grows) so a flood of joiners does not hammer the bootstrap peer in a
// tight re-dial loop for the whole JoinTimeout. An external node sends
// no hellos of its own — its host's membership pump fills the shared
// book — so it just waits for the roster to cover the population.
func (nd *Node) Join() error {
	deadline := time.Now().Add(nd.cfg.JoinTimeout)
	idle := 0 // consecutive sweeps without roster growth
	for nd.book.Size() < nd.cfg.N {
		if nd.stopped.Load() {
			return errors.New("node: closed during join")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d: roster has %d of %d peers after join timeout", nd.cfg.Index, nd.book.Size(), nd.cfg.N)
		}
		before := nd.book.Size()
		if !nd.hosted() {
			if target := nd.helloTarget(); target != "" {
				nd.hello(target)
			}
			if err := nd.joinReject; err != nil {
				return err
			}
		}
		if nd.book.Size() > before {
			idle = 0
		} else {
			idle++
		}
		if !nd.sleep(backoffDelay(nd.jitter, 10*time.Millisecond, idle, 500*time.Millisecond)) {
			return errors.New("node: closed during join")
		}
	}
	return nil
}

// backoffDelay is the shared capped jittered exponential backoff:
// base·2^attempt, capped, with ±50% jitter. The jitter decorrelates
// retry storms across peers; it touches no protocol randomness, but it
// still draws from the node's seeded jitter stream so a run replays
// from its seed alone.
func backoffDelay(j *randx.Jitter, base time.Duration, attempt int, cap time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	half := d / 2
	return half + j.DurationN(d-half+1)
}

// sleep waits for d, returning false if the node shuts down first.
func (nd *Node) sleep(d time.Duration) bool {
	if d <= 0 {
		return !nd.stopped.Load()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-nd.stop:
		return false
	case <-t.C:
		return true
	}
}

// helloTarget picks who to announce to: the bootstrap address first,
// then any known peer (round-robining via random choice).
func (nd *Node) helloTarget() string {
	if nd.cfg.Bootstrap != "" {
		if nd.jitter.IntN(2) == 0 {
			return nd.cfg.Bootstrap
		}
	}
	items := nd.book.Roster()
	cands := make([]string, 0, len(items))
	for _, it := range items {
		if int(it.Index) != nd.cfg.Index && it.Addr != "" {
			cands = append(cands, it.Addr)
		}
	}
	if len(cands) == 0 {
		return nd.cfg.Bootstrap
	}
	return cands[nd.jitter.IntN(len(cands))]
}

// hello performs one hello round trip: announce (with the shared-config
// digest), merge the ack roster. A node relaunched from its journal
// announces KindResume — identity plus journal position — instead, so
// receivers reinstate it from suspicion rather than treating it as a
// fresh joiner. A KindReject answer — the peer's digest differs — is
// recorded as a sticky typed error that aborts the join: retrying
// cannot reconcile inconsistent provisioning. A reply that does not
// decode counts as Rejected, and the join retries.
func (nd *Node) hello(addr string) {
	kind, payload := wireproto.KindHello, wireproto.MarshalHello(wireproto.Hello{
		Index: uint32(nd.cfg.Index), Addr: nd.addr, N: uint32(nd.cfg.N), Digest: nd.digest,
	})
	if nd.resuming {
		kind, payload = wireproto.KindResume, wireproto.MarshalResume(nd.resumeAnn)
	}
	switch _, err := nd.ep.Ask(-1, addr, nd.cfg.ExchangeTimeout, kind, payload); {
	case errors.Is(err, ErrConfigMismatch):
		nd.joinReject = err
	case errors.Is(err, errBadReply):
		nd.counters.Rejected.Add(1)
	}
}

// resumeSweep announces the resume to every peer the roster knows,
// best-effort: peers that evicted this node by suspicion fast-fail its
// slots until they hear the reinstatement, so a single announcement to
// whichever peer answered the join is not enough — the whole population
// should learn the comeback before the run re-enters the protocol.
func (nd *Node) resumeSweep() {
	payload := wireproto.MarshalResume(nd.resumeAnn)
	for _, it := range nd.book.Roster() {
		if int(it.Index) != nd.cfg.Index && it.Addr != "" {
			_, _ = nd.ep.Ask(int(it.Index), it.Addr, 2*time.Second, wireproto.KindResume, payload)
		}
	}
}

// viewLoop gossips the address-book view with random known peers — the
// Newscast connectivity layer keeping rosters fresh while the protocol
// runs (and after joins/leaves).
func (nd *Node) viewLoop() {
	defer nd.wg.Done()
	for {
		select {
		case <-nd.stop:
			return
		case <-time.After(nd.cfg.ViewInterval):
		}
		if addr := nd.helloTarget(); addr != "" {
			_, _ = nd.ep.Ask(-1, addr, nd.cfg.ExchangeTimeout, wireproto.KindView, wireproto.MarshalView(nd.book.Roster()))
		}
	}
}

// Leave departs gracefully: every known peer is notified so it can
// mark this node gone instead of burning timeouts on it.
func (nd *Node) Leave() error {
	for _, it := range nd.book.Roster() {
		if int(it.Index) == nd.cfg.Index || it.Addr == "" {
			continue
		}
		conn, err := nd.ep.dial(-1, it.Addr, time.Second, time.Second)
		if err != nil {
			continue
		}
		_ = nd.ep.write(conn, wireproto.KindLeave, wireproto.MarshalLeave(wireproto.Leave{Index: uint32(nd.cfg.Index)}))
		_ = conn.Close()
	}
	return nd.Close()
}

// Crash departs abruptly: no notice, connections die mid-flight — the
// Section 6.1.5 failure mode.
func (nd *Node) Crash() error { return nd.Close() }

// halt is the half of Close that never blocks: it stops the listener
// and closes every live connection and the registry, so every loop and
// every exchange in flight fails fast. It is what a goroutine Close
// waits for calls when the node must die under it (a commit hook's kill
// or a dead journal during a passive commit); Close finishes the job.
func (nd *Node) halt() {
	nd.haltOnce.Do(func() {
		nd.stopped.Store(true)
		close(nd.stop)
		if nd.ln != nil {
			nd.lnErr = nd.ln.Close()
		}
		nd.ep.CloseAll()
		nd.reg.close()
	})
}

// Close stops the listener, closes every live connection and joins the
// background loops. Closing the live conns is what makes shutdown (and
// context cancellation) prompt: peers blocked mid-exchange fail fast
// instead of waiting out their deadlines.
func (nd *Node) Close() error {
	nd.halt()
	var err error
	nd.closeOnce.Do(func() {
		nd.wg.Wait()
		err = nd.lnErr
		// Flush and close the crash-recovery journal last: a SIGTERM that
		// lands here (the daemon's signal handler calls Close) leaves
		// every committed exchange durable on disk.
		if nd.state != nil {
			if cerr := nd.state.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// JournalLag reports the crash-recovery journal's unsynced tail, or
// zeros for a volatile node. Between commits it is always zero (every
// checkpoint fsyncs), so a non-zero lag on /healthz means a commit is
// being written right now — or fsync is failing.
func (nd *Node) JournalLag() (entries int, bytes int64) {
	return nd.state.Lag()
}

// Endpoint returns the endpoint that serves the node's connections.
func (nd *Node) Endpoint() *Endpoint { return nd.ep }

// route routes the node's endpoint's frames: all are the node's to
// serve but those addressed to another participant.
func (nd *Node) route(target int) *Node {
	if target >= 0 && target != nd.cfg.Index {
		return nil
	}
	return nd
}

// serveRequest takes over an exchange request of phase its endpoint
// routed to the node, with its connection and frame. The registry
// either parks both until the request's slot opens, or, for an open
// slot, claims the request for service right here, on the delivering
// goroutine.
func (nd *Node) serveRequest(conn net.Conn, f wireproto.Frame, phase int) {
	hdr, err := wireproto.PeekHdr(f.Payload)
	if err != nil || int(hdr.To) != nd.cfg.Index || int(hdr.From) >= nd.cfg.N {
		nd.counters.Rejected.Add(1)
		_ = conn.Close()
		f.Release()
		return
	}
	s := slot{iter: int(hdr.Iter), phase: phase, cycle: int(hdr.Cycle), seq: int(hdr.Seq)}
	_ = conn.SetDeadline(time.Time{})
	in := inbound{frame: f, conn: conn}
	if t, _ := nd.reg.deliver(s, in); t != nil {
		nd.servePassive(t, in)
	}
}

// dial opens a connection to a peer with the exchange deadline set.
// When retries are on, each attempt gets an even share of the exchange
// deadline as its dial budget, so a blackholed first dial cannot eat
// the retries' time.
func (nd *Node) dial(idx int) (net.Conn, error) {
	nd.suspMu.Lock()
	ev := nd.evicted[idx]
	nd.suspMu.Unlock()
	if ev {
		return nil, errNoAddress
	}
	addr := nd.book.Addr(idx)
	if addr == "" {
		return nil, errNoAddress
	}
	timeout := nd.cfg.ExchangeTimeout
	if nd.cfg.Policy.MaxRetries > 0 {
		timeout /= time.Duration(nd.cfg.Policy.MaxRetries + 1)
		if timeout < 250*time.Millisecond {
			timeout = 250 * time.Millisecond
		}
	}
	return nd.ep.dial(idx, addr, timeout, nd.cfg.ExchangeTimeout)
}

// errNoAddress marks a dial to a peer the node cannot resolve (never
// learned, departed, or evicted by suspicion). It fails fast and is not
// retried: retrying cannot conjure an address, and a reinstatement of
// the peer serves later slots, not this one.
var errNoAddress = errors.New("node: no address for peer")

// --- peer suspicion ---

// peerOK and peerFailed track consecutive initiator-side outcomes per
// peer; strikes are charged only by the main protocol loop, but the
// maps are shared with Reinstate (connection goroutines) and the
// responder's early-release check, hence suspMu. After SuspicionK
// consecutive failures a peer is evicted into the node's own overlay —
// on a host one participant's suspicion must not expel a peer for
// every co-located sibling, and a standalone node follows the same
// rule: later exchanges fast-fail instead of burning their deadline,
// and the churn observer reports the eviction. Only a KindResume
// announcement from the peer lifts it (Reinstate), reported as resumed.
func (nd *Node) peerOK(peer int) {
	nd.suspMu.Lock()
	delete(nd.suspect, peer)
	nd.suspMu.Unlock()
}

func (nd *Node) peerFailed(peer int, s slot) {
	if nd.cfg.Policy.SuspicionK <= 0 {
		return
	}
	nd.suspMu.Lock()
	nd.suspect[peer]++
	nd.counters.Suspected.Add(1)
	if nd.suspect[peer] < nd.cfg.Policy.SuspicionK {
		nd.suspMu.Unlock()
		return
	}
	delete(nd.suspect, peer)
	if nd.evicted[peer] || nd.book.Addr(peer) == "" {
		nd.suspMu.Unlock()
		return // already unreachable (departed or evicted)
	}
	nd.evicted[peer] = true
	nd.suspMu.Unlock()
	nd.counters.Evicted.Add(1)
	if hook := nd.cfg.Proto.Observer.Churn; hook != nil {
		hook(s.iter, s.cycle, 1, core.ChurnEvicted)
	}
}

// Reinstate clears a peer's suspicion state — a resume announcement
// proved it alive. A lifted eviction is reported to the churn observer
// as a "resumed" event, the inverse of the eviction it undoes. Safe to
// call from connection goroutines.
func (nd *Node) Reinstate(peer int) {
	if peer < 0 || peer >= nd.cfg.N || peer == nd.cfg.Index {
		return
	}
	nd.suspMu.Lock()
	wasEvicted := nd.evicted[peer]
	delete(nd.suspect, peer)
	delete(nd.evicted, peer)
	nd.suspMu.Unlock()
	if wasEvicted {
		if hook := nd.cfg.Proto.Observer.Churn; hook != nil {
			hook(int(nd.iterNow.Load()), 0, 1, core.ChurnResumed)
		}
	}
}

// peerUnreachable reports whether a peer is currently hopeless to hear
// from: evicted by this node's suspicion, or without an address in the
// book (never learned, or departed). A responder slot's wait uses it
// to stop burning a full exchange deadline on an initiator that is
// known to be down — if the initiator resumes, its announcement
// reinstates it before it re-enters the schedule.
func (nd *Node) peerUnreachable(peer int) bool {
	nd.suspMu.Lock()
	ev := nd.evicted[peer]
	nd.suspMu.Unlock()
	return ev || nd.book.Addr(peer) == ""
}
