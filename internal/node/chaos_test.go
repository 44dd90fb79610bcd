package node

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/faultnet"
	"chiaroscuro/internal/wireproto"
)

// checkNoLeak polls until the live goroutine count is back at (or
// below) the pre-test baseline — retry loops, suspicion bookkeeping and
// re-awaited responder slots must all unwind on Close. On timeout it
// dumps every stack (the cancel_test.go pattern, local to this package).
func checkNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// launchChaosNodes is launchNodes with a fault policy and a faultnet
// injector wired into every node's dialer and crash hook. It closes the
// nodes before returning so callers can assert on goroutine baselines.
func launchChaosNodes(t *testing.T, ts testSetup, plan faultnet.Plan, policy Policy) []*Result {
	t.Helper()
	inj := faultnet.New(plan)
	nodes := make([]*Node, ts.n)
	var bootstrap string
	for i := 0; i < ts.n; i++ {
		nf := inj.Node(i)
		cfg := Config{
			Index:           i,
			N:               ts.n,
			Series:          ts.data.Row(i),
			Scheme:          ts.scheme,
			Proto:           ts.proto,
			Bootstrap:       bootstrap,
			ExchangeTimeout: 20 * time.Second,
			FinTimeout:      20 * time.Second,
			JoinTimeout:     20 * time.Second,
			ViewInterval:    200 * time.Millisecond,
			Policy:          policy,
			Dialer:          nf,
			CrashHook:       nf.Crash,
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		nodes[i] = nd
		if i == 0 {
			bootstrap = nd.Addr()
		}
	}
	results := make([]*Result, ts.n)
	errs := make([]error, ts.n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			results[i], errs[i] = nd.Run()
		}(i, nd)
	}
	wg.Wait()
	for _, nd := range nodes {
		_ = nd.Close()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results
}

// TestChaosRunBitMatchesSimulator is the robustness acceptance e2e: 12
// real TCP nodes complete a clustering round under modeled churn plus a
// seeded fault plan — connection refusals, asymmetric partitions, added
// latency — with retries turned on, and still release centroids
// bit-identical to the in-memory simulator. The plan injects no crashes
// and no cuts, and MaxRetries exceeds the plan's MaxStreak, so every
// scheduled exchange completes: same completed-exchange trace, same
// bits. Running the whole thing twice pins both the determinism of the
// fault schedule and that no retry ever double-applies a merge (a
// double-applied half would shift the centroids off the simulator's).
func TestChaosRunBitMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	baseline := runtime.NumGoroutine()
	ts := newSetup(t, 12, 0.2)
	ts.proto.DissCycles = 16
	ts.proto.DecryptCycles = 16
	simRes := runSim(t, ts)
	if len(simRes.Centroids) == 0 {
		t.Fatal("simulator produced no centroids")
	}
	plan := faultnet.Plan{
		Seed:          99,
		RefuseProb:    0.15,
		PartitionProb: 0.15,
		LatencyMax:    500 * time.Microsecond,
	}
	policy := Policy{MaxRetries: 4, Backoff: 5 * time.Millisecond}

	totals := func(results []*Result) (initiated, responded, retries int64) {
		for _, r := range results {
			initiated += r.Counters.Initiated
			responded += r.Counters.Responded
			retries += r.Counters.Retries
		}
		return
	}
	run1 := launchChaosNodes(t, ts, plan, policy)
	assertCentroidsEqual(t, "chaos run 1 vs sim", simRes.Centroids, run1[0].Centroids)
	for i, r := range run1 {
		if len(r.Centroids) == 0 {
			t.Fatalf("node %d released no centroids under chaos", i)
		}
	}
	init1, resp1, retries1 := totals(run1)
	if retries1 == 0 {
		t.Fatal("fault plan injected nothing: no retries recorded")
	}

	run2 := launchChaosNodes(t, ts, plan, policy)
	assertCentroidsEqual(t, "chaos run 2 vs sim", simRes.Centroids, run2[0].Centroids)
	init2, resp2, retries2 := totals(run2)
	if init1 != init2 || resp1 != resp2 || retries1 != retries2 {
		t.Fatalf("same seed, different executions: run 1 initiated/responded/retries %d/%d/%d, run 2 %d/%d/%d",
			init1, resp1, retries1, init2, resp2, retries2)
	}
	checkNoLeak(t, baseline)
}

// flakyDialer fails the first `fails` exchange dials with a transient
// error, then delegates to plain TCP. Membership dials pass through.
type flakyDialer struct {
	mu    sync.Mutex
	fails int
}

func (d *flakyDialer) Dial(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	if peer >= 0 {
		d.mu.Lock()
		if d.fails > 0 {
			d.fails--
			d.mu.Unlock()
			return nil, errors.New("flaky: connection refused") // transient, so retried
		}
		d.mu.Unlock()
	}
	return tcpDialer{}.Dial(peer, addr, timeout)
}

// TestRetryRecoversExchange pins the retry path end to end: the first
// two dial attempts of a dissemination exchange fail, the third lands,
// and both sides converge to exactly the state a clean single-attempt
// exchange produces — the retries are invisible to the protocol.
func TestRetryRecoversExchange(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := newSetup(t, 2, 0)
	flaky := &flakyDialer{fails: 2}
	mk := func(idx int, bootstrap string, dialer Dialer) *Node {
		cfg := Config{
			Index: idx, N: 2,
			Series: ts.data.Row(idx), Scheme: ts.scheme, Proto: ts.proto,
			Bootstrap:       bootstrap,
			ExchangeTimeout: 5 * time.Second,
			FinTimeout:      time.Second,
			ViewInterval:    -1,
			Policy:          Policy{MaxRetries: 3, Backoff: time.Millisecond},
			Dialer:          dialer,
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	ndA := mk(0, "", flaky)
	ndB := mk(1, ndA.Addr(), nil)
	ndA.book.Learn(1, ndB.Addr())
	ndB.book.Learn(0, ndA.Addr())

	stA := electState(5, 1, 2, 3)
	stB := electState(3, 9, 8, 7)

	s := slot{iter: 1, phase: phaseDiss, cycle: 0, seq: 0}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ndB.respond(phaseDiss, stB, s, 0)
	}()
	ndA.initiate(phaseDiss, stA, 1, s, true)
	<-done

	// Both sides hold the smaller identifier's vector.
	for name, st := range map[string]*iterState{"initiator": stA, "responder": stB} {
		if st.VecID != 3 || st.Vec.CopyValues()[0].V.Int64() != 9 {
			t.Fatalf("%s holds vector %d %v, want the exchanged 3/[9 8 7]", name, st.VecID, st.Vec.CopyValues())
		}
	}
	ca, cb := ndA.Counters(), ndB.Counters()
	if ca.Retries != 2 {
		t.Fatalf("initiator recorded %d retries, want 2", ca.Retries)
	}
	if ca.Initiated != 1 || cb.Responded != 1 {
		t.Fatalf("committed %d/%d exchanges, want exactly 1/1 (no double apply)", ca.Initiated, cb.Responded)
	}
	if ca.Timeouts != 0 || cb.Timeouts != 0 {
		t.Fatalf("recovered exchange still recorded timeouts: %d/%d", ca.Timeouts, cb.Timeouts)
	}
	_ = ndA.Close()
	_ = ndB.Close()
	checkNoLeak(t, baseline)
}

// refusingDialer refuses every exchange dial, forever.
type refusingDialer struct{}

func (refusingDialer) Dial(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	if peer >= 0 {
		return nil, errors.New("refused: no route to peer")
	}
	return tcpDialer{}.Dial(peer, addr, timeout)
}

// TestSuspicionEvictsPeer pins the suspicion policy on a standalone
// node: after SuspicionK consecutive initiator-side failures the peer is
// evicted — unreachable, its book entry untouched — the eviction is
// counted and reported to the churn observer, and later slots fast-fail
// instead of burning their retry budget. A resume announcement from the
// peer, answered by the node's endpoint, lifts the eviction and is
// reported as resumed.
func TestSuspicionEvictsPeer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := newSetup(t, 2, 0)
	type churnEv struct {
		down   int
		reason string
	}
	var mu sync.Mutex // the resume is reported on a connection goroutine
	var churns []churnEv
	seen := func() []churnEv {
		mu.Lock()
		defer mu.Unlock()
		return append([]churnEv(nil), churns...)
	}
	ts.proto.Observer.Churn = func(iter, cycle, down int, reason string) {
		mu.Lock()
		churns = append(churns, churnEv{down, reason})
		mu.Unlock()
	}
	cfg := Config{
		Index: 0, N: 2,
		Series: ts.data.Row(0), Scheme: ts.scheme, Proto: ts.proto,
		ViewInterval: -1,
		Policy:       Policy{SuspicionK: 2, Backoff: time.Millisecond},
		Dialer:       refusingDialer{},
	}
	nd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const peerAddr = "127.0.0.1:1" // reachable on paper, refused on dial
	nd.book.Learn(1, peerAddr)
	st := electState(1, 1)

	nd.initiate(phaseDiss, st, 1, slot{iter: 1, phase: phaseDiss, cycle: 0, seq: 0}, true)
	if nd.peerUnreachable(1) {
		t.Fatal("one failure already evicted the peer (SuspicionK = 2)")
	}
	nd.initiate(phaseDiss, st, 1, slot{iter: 1, phase: phaseDiss, cycle: 1, seq: 0}, true)

	if !nd.peerUnreachable(1) {
		t.Fatalf("peer still reachable after %d consecutive failures", 2)
	}
	if got := nd.book.Addr(1); got != peerAddr {
		t.Fatalf("eviction touched the book: peer 1 at %q, want %q", got, peerAddr)
	}
	c := nd.Counters()
	if c.Evicted != 1 || c.Suspected != 2 {
		t.Fatalf("evicted/suspected = %d/%d, want 1/2", c.Evicted, c.Suspected)
	}
	if ev := seen(); len(ev) != 1 || ev[0].reason != core.ChurnEvicted || ev[0].down != 1 {
		t.Fatalf("churn observer saw %+v, want one %q event", ev, core.ChurnEvicted)
	}
	// The third slot fast-fails on the eviction: one timeout, no retries
	// burned, no second eviction.
	before := c.Timeouts
	nd.initiate(phaseDiss, st, 1, slot{iter: 1, phase: phaseDiss, cycle: 2, seq: 0}, true)
	c = nd.Counters()
	if c.Timeouts != before+1 || c.Retries != 0 {
		t.Fatalf("evicted-peer slot recorded timeouts %d→%d retries %d, want one fast-fail and zero retries",
			before, c.Timeouts, c.Retries)
	}
	if c.Evicted != 1 {
		t.Fatalf("evicted twice: %d", c.Evicted)
	}
	// The peer's resume announcement, answered by the node's endpoint,
	// reinstates it.
	resume := wireproto.MarshalResume(wireproto.Resume{Index: 1, Addr: peerAddr, N: 2, Digest: nd.digest})
	if _, err := nd.ep.Ask(-1, nd.Addr(), 5*time.Second, wireproto.KindResume, resume); err != nil {
		t.Fatal(err)
	}
	if nd.peerUnreachable(1) {
		t.Fatal("the resume announcement did not reinstate the evicted peer")
	}
	if ev := seen(); len(ev) != 2 || ev[1].reason != core.ChurnResumed || ev[1].down != 1 {
		t.Fatalf("churn observer saw %+v, want the eviction and then one %q event", ev, core.ChurnResumed)
	}
	_ = nd.Close()
	checkNoLeak(t, baseline)
}

// TestBadFrameDropsConnNotListener is the regression for the accept
// path: a malformed frame — impossible length, over-limit length — must
// increment BadFrames and kill that connection only. The listener keeps
// serving: a well-formed join afterwards succeeds.
func TestBadFrameDropsConnNotListener(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := newSetup(t, 2, 0)
	cfgA := Config{Index: 0, N: 2, Series: ts.data.Row(0), Scheme: ts.scheme, Proto: ts.proto, ViewInterval: -1}
	ndA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}

	send := func(frame []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", ndA.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		// The node must drop the connection, not stall it until a timeout.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read after garbage = %v, want the connection dropped (EOF)", err)
		}
	}

	// A frame shorter than its own fixed header.
	short := make([]byte, 4)
	binary.BigEndian.PutUint32(short, 4)
	send(short)
	// A frame claiming more bytes than any Chiaroscuro message may carry.
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, 1<<27)
	send(huge)

	if got := ndA.Counters().BadFrames; got != 2 {
		t.Fatalf("BadFrames = %d after two hostile frames, want 2", got)
	}

	// The accept loop survived: a real peer can still join through it.
	cfgB := Config{Index: 1, N: 2, Series: ts.data.Row(1), Scheme: ts.scheme, Proto: ts.proto,
		Bootstrap: ndA.Addr(), ViewInterval: -1, JoinTimeout: 5 * time.Second}
	ndB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ndB.Join(); err != nil {
		t.Fatalf("join after hostile frames: %v", err)
	}
	if got := ndA.book.Addr(1); got != ndB.Addr() {
		t.Fatalf("bootstrap learned %q for the joiner, want %q", got, ndB.Addr())
	}
	_ = ndA.Close()
	_ = ndB.Close()
	checkNoLeak(t, baseline)
}

// TestResponderSurvivesFinCut pins the bounded fin-loss re-await: when
// the initiator's commit leg is cut mid-frame, the responder resolves
// the slot as half-completed within its short re-await window — it does
// not burn the slot's whole exchange deadline — and applies nothing.
func TestResponderSurvivesFinCut(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := newSetup(t, 2, 0)
	mk := func(idx int, dialer Dialer) *Node {
		cfg := Config{
			Index: idx, N: 2,
			Series: ts.data.Row(idx), Scheme: ts.scheme, Proto: ts.proto,
			ExchangeTimeout: 30 * time.Second,
			FinTimeout:      300 * time.Millisecond,
			ViewInterval:    -1,
			Policy:          Policy{MaxRetries: 2, Backoff: time.Millisecond},
			Dialer:          dialer,
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	// The dialer lets the first frame of each connection (the REQ)
	// through and severs the second (the FIN) mid-frame: the responder
	// sees the commit leg die after its own merge point was armed.
	ndA := mk(0, finCutDialer{})
	ndB := mk(1, nil)
	ndA.book.Learn(1, ndB.Addr())
	ndB.book.Learn(0, ndA.Addr())

	// The initiator holds the smaller identifier, so only the fin carries
	// a vector the responder would adopt.
	stA := electState(3, 9)
	stB := electState(5, 1)
	preB := stB.VecID

	s := slot{iter: 1, phase: phaseDiss, cycle: 0, seq: 0}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		ndB.respond(phaseDiss, stB, s, 0)
	}()
	ndA.initiate(phaseDiss, stA, 1, s, true)
	<-done
	elapsed := time.Since(start)

	// The initiator committed (merge before the fin); the responder saw
	// the fin die and stayed untouched — the Section 6.1.5 half-completed
	// shape — well inside the 30s exchange deadline.
	if ndA.Counters().Initiated != 1 {
		t.Fatalf("initiator committed %d times, want 1", ndA.Counters().Initiated)
	}
	if stB.VecID != preB {
		t.Fatal("responder applied a half-completed exchange")
	}
	if ndB.Counters().Timeouts == 0 {
		t.Fatal("responder did not account the lost fin")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("fin loss burned %s, want the bounded re-await window", elapsed)
	}
	_ = ndA.Close()
	_ = ndB.Close()
	checkNoLeak(t, baseline)
}

// finCutDialer wraps plain TCP so the second frame written on each
// exchange connection — the FIN — emits one byte and dies mid-frame.
type finCutDialer struct{}

func (finCutDialer) Dial(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := tcpDialer{}.Dial(peer, addr, timeout)
	if err != nil || peer < 0 {
		return conn, err
	}
	return &finCutConn{Conn: conn}, nil
}

type finCutConn struct {
	net.Conn
	writes int
}

func (c *finCutConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes < 2 {
		return c.Conn.Write(p)
	}
	_, _ = c.Conn.Write(p[:1])
	_ = c.Conn.Close()
	return 1, errors.New("cut: connection severed mid-frame")
}
