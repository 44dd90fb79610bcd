package node

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/wireproto"
)

// tailOf opens one tail slot per given slot on r and returns them with
// whatever settle claimed.
func tailOf(r *registry, slots ...slot) ([]*tailSlot, []claim) {
	tails := make([]*tailSlot, len(slots))
	for i, s := range slots {
		tails[i] = &tailSlot{s: s}
	}
	return tails, r.settle(tails)
}

// TestRegistryTailRendezvous pins the one rendezvous between requests
// and a settling participant: whether a request was parked before the
// node settled, arrives after, arrives while it settles, or is the
// redial after a failed attempt, it is handed to exactly one server,
// and once its slot is closed no connection is left open.
func TestRegistryTailRendezvous(t *testing.T) {
	dec := func(cycle int) slot { return slot{iter: 1, phase: phaseDec, cycle: cycle} }

	t.Run("parked before settling", func(t *testing.T) {
		r := newRegistry(nil)
		c := newFakeConn()
		if tl, ok := r.deliver(dec(3), inbound{conn: c}); !ok || tl != nil {
			t.Fatal("request ahead of an unsettled node must park")
		}
		tails, claims := tailOf(r, dec(3), dec(4))
		if len(claims) != 1 || claims[0].t != tails[0] || claims[0].in.conn != c {
			t.Fatalf("settle claimed %+v, want the parked request for its slot", claims)
		}
		if tl, ok := r.deliver(dec(3), inbound{conn: newFakeConn()}); !ok || tl != nil {
			t.Fatal("a redial during the claimed attempt must park, not be served twice")
		}
		if _, ok := r.finish(tails[0], false, 0); ok {
			t.Fatal("a closed slot handed out another request")
		}
		if r.waitTail(tails[0], time.Second) != tailClosed {
			t.Fatal("served slot not closed")
		}
	})

	t.Run("arriving after settling", func(t *testing.T) {
		r := newRegistry(nil)
		tails, claims := tailOf(r, dec(5))
		if len(claims) != 0 {
			t.Fatal("settle invented a request")
		}
		if r.waitTail(tails[0], time.Millisecond) != tailPending {
			t.Fatal("an open slot without a deadline must keep waiting")
		}
		c := newFakeConn()
		tl, ok := r.deliver(dec(5), inbound{conn: c})
		if !ok || tl != tails[0] {
			t.Fatal("request for an open tail slot not claimed by its deliverer")
		}
		r.finish(tl, false, 0)
		late := newFakeConn()
		if _, ok := r.deliver(dec(5), inbound{conn: late}); ok || !late.closed.Load() {
			t.Fatal("delivery to a closed tail slot must be refused and its connection closed")
		}
	})

	t.Run("arriving while settling", func(t *testing.T) {
		const n = 64
		r := newRegistry(nil)
		slots := make([]slot, n)
		for i := range slots {
			slots[i] = dec(i)
		}
		var served [n]atomic.Int32
		conns := make([]*fakeConn, n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range slots {
			conns[i] = newFakeConn()
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if tl, _ := r.deliver(slots[i], inbound{conn: conns[i]}); tl != nil {
					served[tl.s.cycle].Add(1)
					r.finish(tl, false, 0)
				}
			}()
		}
		close(start)
		tails, claims := tailOf(r, slots...)
		for _, cl := range claims {
			served[cl.t.s.cycle].Add(1)
			r.finish(cl.t, false, 0)
		}
		wg.Wait()
		for i, tl := range tails {
			if got := served[i].Load(); got != 1 {
				t.Fatalf("slot %d served %d times, want exactly once", i, got)
			}
			if r.waitTail(tl, time.Second) != tailClosed {
				t.Fatalf("slot %d left open", i)
			}
		}
	})

	t.Run("redial after a failed attempt", func(t *testing.T) {
		r := newRegistry(nil)
		tails, _ := tailOf(r, dec(7), dec(8))
		// Idle redial: the attempt ends first, the redial is claimed by
		// its own deliverer.
		first, _ := r.deliver(dec(7), inbound{conn: newFakeConn()})
		if _, ok := r.finish(first, true, 0); ok {
			t.Fatal("finish invented a redial")
		}
		second, ok := r.deliver(dec(7), inbound{conn: newFakeConn()})
		if !ok || second != tails[0] || second.attempts != 1 {
			t.Fatalf("redial of a reopened slot not claimed (attempts %d)", tails[0].attempts)
		}
		r.finish(second, false, 0)
		// Overlapping redial: it parks behind the dying attempt, and the
		// attempt's server takes it over. A second one replaces it.
		busy, _ := r.deliver(dec(8), inbound{conn: newFakeConn()})
		stale, redial := newFakeConn(), newFakeConn()
		r.deliver(dec(8), inbound{conn: stale})
		r.deliver(dec(8), inbound{conn: redial})
		if !stale.closed.Load() {
			t.Fatal("superseded redial left open")
		}
		in, ok := r.finish(busy, true, 0)
		if !ok || in.conn != redial {
			t.Fatal("the redial parked behind a failed attempt was not handed to its server")
		}
		r.finish(busy, false, 0)
		for _, tl := range tails {
			if r.waitTail(tl, time.Second) != tailClosed {
				t.Fatal("slot left open")
			}
		}
	})

	t.Run("nobody shows up", func(t *testing.T) {
		r := newRegistry(nil)
		tails, _ := tailOf(r, dec(9), dec(10), dec(11))
		busy, _ := r.deliver(dec(10), inbound{conn: newFakeConn()})
		r.armTail(time.Now().Add(-time.Second))
		if r.waitTail(tails[0], time.Second) != tailExpired {
			t.Fatal("an idle slot past its deadline must expire")
		}
		if r.waitTail(tails[1], time.Millisecond) != tailPending {
			t.Fatal("a slot with an attempt in flight must be waited out, whatever its deadline")
		}
		if r.expireTail(tails[1]) {
			t.Fatal("early release tombstoned a slot under its server")
		}
		r.finish(busy, false, 0)
		if !r.expireTail(tails[2]) || r.expireTail(tails[2]) {
			t.Fatal("early release must tombstone an idle slot exactly once")
		}
		parked := newFakeConn()
		if _, ok := r.deliver(dec(9), inbound{conn: parked}); ok || !parked.closed.Load() {
			t.Fatal("delivery to an expired slot must be refused and closed")
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		r := newRegistry(nil)
		tails, _ := tailOf(r, dec(12), dec(13))
		busy, _ := r.deliver(dec(12), inbound{conn: newFakeConn()})
		redial := newFakeConn()
		r.deliver(dec(12), inbound{conn: redial})
		r.close()
		if !redial.closed.Load() {
			t.Fatal("shutdown left a parked redial open")
		}
		if _, ok := r.finish(busy, true, 0); ok {
			t.Fatal("a closed registry handed out a request")
		}
		for _, tl := range tails {
			if r.waitTail(tl, time.Second) != tailClosed {
				t.Fatal("shutdown left a tail slot open")
			}
		}
	})
}

// settledPair builds two directly connected nodes whose decryption
// states are settled on the same ciphertext vector: both key-shares of
// a τ = 2 scheme gathered and released, every vector an image as a
// run's are.
func settledPair(t *testing.T, dialerA Dialer) (ndA, ndB *Node, stA, stB *iterState) {
	t.Helper()
	ts := newSetup(t, 2, 0)
	mk := func(idx int, dialer Dialer) *Node {
		nd, err := New(Config{
			Index: idx, N: 2,
			Series: ts.data.Row(idx), Scheme: ts.scheme, Proto: ts.proto,
			ExchangeTimeout: 5 * time.Second,
			FinTimeout:      300 * time.Millisecond,
			ViewInterval:    -1,
			Policy:          Policy{MaxRetries: 3, Backoff: time.Millisecond},
			Dialer:          dialer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		return nd
	}
	ndA, ndB = mk(0, dialerA), mk(1, nil)
	ndA.book.Learn(1, ndB.Addr())
	ndB.book.Learn(0, ndA.Addr())
	var cts []homenc.Ciphertext
	for _, v := range []int64{5 << 24, -3 << 24, 7 << 24, 1 << 24} {
		cts = append(cts, ts.scheme.Encrypt(big.NewInt(v)))
	}
	settled := func(nd *Node) *iterState {
		st := eesum.NewParticipant(nd.env, nd.cfg.Index, nil, eesum.NoiseConfig{})
		st.VecID, st.Vec, st.VecOmega = 7, imageOf(t, cts), big.NewInt(1)
		st.StartDecryption(releaseDim(nd, len(cts)))
		for _, holder := range []*Node{ndA, ndB} {
			ps, err := eesum.DecPartials(ts.scheme, holder.cfg.Index+1, cts, 1)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]homenc.Ciphertext, len(ps))
			for j, p := range ps {
				vals[j].V = p.V
			}
			st.DecParts = append(st.DecParts, eesum.Part{Idx: holder.cfg.Index + 1, V: imageOf(t, vals)})
		}
		// Both sides hold the same release, as after a settling commit.
		st.Released = slices.Repeat([]float64{0.5}, st.ReleaseDim())
		return st
	}
	return ndA, ndB, settled(ndA), settled(ndB)
}

// releaseDim is how many values a vector of n ciphertexts releases in
// nd's slot layout.
func releaseDim(nd *Node, n int) int { return n * max(1, nd.env.Pack.Slots) }

// imageOf returns cts as an image-only vector, as a participant holds
// the vectors of its decryption state.
func imageOf(t *testing.T, cts []homenc.Ciphertext) *homenc.Vector {
	t.Helper()
	enc, err := homenc.MarshalVector(cts)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := homenc.ScanVectorBound(enc, len(cts), homenc.DefaultMaxIntBytes)
	if err != nil {
		t.Fatal(err)
	}
	return v.Copy()
}

// respCutDialer severs the first exchange connection it opens at the
// response leg: the request goes out, the read of the response kills
// the connection. Later connections are clean.
type respCutDialer struct{ dials atomic.Int32 }

func (d *respCutDialer) Dial(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := tcpDialer{}.Dial(peer, addr, timeout)
	if err != nil || peer < 0 || d.dials.Add(1) > 1 {
		return conn, err
	}
	return &respCutConn{Conn: conn}, nil
}

type respCutConn struct{ net.Conn }

func (c *respCutConn) Read([]byte) (int, error) {
	_ = c.Conn.Close()
	return 0, errors.New("cut: connection severed on the response leg")
}

// TestPassiveServeSurvivesResponseCut extends TestRetryRecoversExchange
// to a passively served slot: the connection dies on a settled
// responder's response leg, before the initiator's merge. The slot must
// stay claimable, the initiator's redial must be served again — by
// whichever goroutine delivers it — and commit exactly once on both
// sides, with the same counters every time.
func TestPassiveServeSurvivesResponseCut(t *testing.T) {
	baseline := runtime.NumGoroutine()
	run := func() (a, b wireproto.Counters) {
		ndA, ndB, stA, stB := settledPair(t, &respCutDialer{})
		s := slot{iter: 1, phase: phaseDec, cycle: 4, seq: 0}
		tails := []*tailSlot{{s: s, from: 0, st: stB}}
		if claims := ndB.reg.settle(tails); len(claims) != 0 {
			t.Fatal("settle invented a request")
		}
		ndA.initiate(phaseDec, stA, 1, s, true)
		ndB.awaitTail(tails, func() {})
		if ndB.reg.waitTail(tails[0], time.Second) != tailClosed {
			t.Fatal("served slot left open")
		}
		a, b = ndA.Counters(), ndB.Counters()
		_ = ndA.Close()
		_ = ndB.Close()
		a.BytesSent, a.BytesRecv, b.BytesSent, b.BytesRecv = 0, 0, 0, 0 // the cut leg may or may not have left the socket
		return a, b
	}
	a1, b1 := run()
	if a1.Initiated != 1 || b1.Responded != 1 {
		t.Fatalf("committed %d/%d exchanges, want exactly 1/1", a1.Initiated, b1.Responded)
	}
	if a1.Retries != 1 || b1.Retries != 1 {
		t.Fatalf("retries %d/%d, want one on each side: the cut attempt, then the re-served redial", a1.Retries, b1.Retries)
	}
	if a1.Timeouts != 0 || b1.Timeouts != 0 || a1.Rejected != 0 || b1.Rejected != 0 {
		t.Fatalf("recovered exchange left timeouts or rejections: %+v / %+v", a1, b1)
	}
	if a2, b2 := run(); a1 != a2 || b1 != b2 {
		t.Fatalf("same scenario, different counters:\n  run 1 %+v / %+v\n  run 2 %+v / %+v", a1, b1, a2, b2)
	}
	checkNoLeak(t, baseline)
}

// tailGate is the hook pair TestCrashResumeSettledTail drives its victim
// with. A settled tail runs several exchanges at once, so "kill at a
// commit point where nothing is lost" needs more than picking a commit:
// an exchange in flight on another goroutine would die half-done. The
// gate stages the kill. Responder serves for decryption slots of cycle
// holdCycle or later wait at the response leg until the victim's main
// loop is out of the way — sitting in the request-leg hook of its own
// first dial of those cycles (its previous dial's FIN is out, the next
// has sent nothing), or serving the gated slot itself — and the serves
// for earlier slots have committed. Then they are let through one at a
// time, and the killAfter-th commit — FIN received, journaled, nothing
// else in flight, the victim's own dials a cycle or more behind the
// slots just journaled — kills: every leg held at the gate, or reaching
// it later, is crashed.
//
// The main loop serves a gated slot itself when the victim settles late:
// openTail hands it the requests already parked for its tail. Such a
// serve must not wait for the main loop's request-leg hook, which the
// loop can only reach after the serve; the gate tells it apart by the
// goroutine, the one that runs the request legs.
type tailGate struct {
	holdCycle, killAfter int

	mu      sync.Mutex
	cond    *sync.Cond
	main    uint64 // the main loop's goroutine: the one that sends request legs
	held    bool   // the main loop sits in its request-leg hook
	token   bool   // a gated responder serve is in flight
	early   int    // responder serves for slots before holdCycle in flight
	commits int    // commits of gated serves
	killed  bool
}

// goid returns the calling goroutine's id, from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

func newTailGate(holdCycle, killAfter int) *tailGate {
	g := &tailGate{holdCycle: holdCycle, killAfter: killAfter}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *tailGate) crash(leg, phase, iter, cycle, seq int) bool {
	if phase != phaseDec {
		return false
	}
	self := goid()
	g.mu.Lock()
	defer g.mu.Unlock()
	if leg == LegReq {
		g.main = self
	}
	switch {
	case g.killed:
	case leg == LegResp && cycle < g.holdCycle:
		g.early++
	case leg == LegResp:
		onMain := self == g.main
		for (!(g.held || onMain) || g.token || g.early > 0) && !g.killed {
			g.cond.Wait()
		}
		g.token = !g.killed
	case leg == LegReq && cycle >= g.holdCycle:
		g.held = true
		g.cond.Broadcast()
		for !g.killed {
			g.cond.Wait()
		}
	}
	// The kill is decided inside the commit hook, a moment before the
	// node acts on it: a leg let through in between would escape a dead
	// process. It dies here instead, as it would have.
	return g.killed
}

func (g *tailGate) commit(phase, iter, cycle, seq int, initiator bool) bool {
	if phase != phaseDec || initiator {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.cond.Broadcast()
	switch {
	case g.killed:
	case cycle < g.holdCycle:
		g.early--
	default:
		g.token = false
		g.commits++
		g.killed = g.commits == g.killAfter
	}
	return g.killed
}

// TestCrashResumeSettledTail is TestCrashResumeBitMatchesSimulator aimed
// at the settled tail, where commits are journaled in whatever order
// requests arrive and "skip everything up to the newest checkpoint" no
// longer holds: a settled, journaled peer is killed after several
// passive commits (of the five responder slots the seed's schedule
// gives the victim from decryption cycle 5 on) while its own dials lag
// behind them, and relaunched from its journal. The replay must hold the passively
// committed slots as done without taking the skipped dials along, so
// the resumed peer re-runs exactly what it had not committed: every
// participant bit-matches its uncrashed self and the population's
// exchange totals are the uncrashed run's (a re-run of a committed slot,
// or a skipped uncommitted one, would shift them).
func TestCrashResumeSettledTail(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	baseline := runtime.NumGoroutine()
	ts := newSetup(t, 12, 0)
	policy := Policy{MaxRetries: 3, Backoff: 50 * time.Millisecond}
	clean := launchResumeNodes(t, ts, -1, "", nil, nil, policy)
	cleanTot := exchangeTotals(clean)

	const victim = 3
	gate := newTailGate(5, 3)
	var frontier slot
	var tail int
	res := launchResumeNodesInspect(t, ts, victim, t.TempDir(), gate.commit, gate.crash, policy, func(nd *Node) {
		if rz := nd.resume; rz != nil && rz.pos != nil {
			frontier, tail = *rz.pos, len(rz.tail)
		}
	})
	if !gate.killed {
		t.Fatal("the gate never killed the victim")
	}
	if frontier.phase != phaseDec || tail < gate.killAfter {
		t.Fatalf("journal replayed to frontier %+v with %d tail slots: the victim was not killed inside a settled tail", frontier, tail)
	}
	for i := range res {
		assertCentroidsEqual(t, fmt.Sprintf("crashed run node %d vs uncrashed", i), clean[i].Centroids, res[i].Centroids)
	}
	tot := exchangeTotals(res)
	if tot.Initiated != cleanTot.Initiated || tot.Responded != cleanTot.Responded {
		t.Fatalf("exchange totals diverged from the uncrashed run: init %d want %d, resp %d want %d",
			tot.Initiated, cleanTot.Initiated, tot.Responded, cleanTot.Responded)
	}
	if tot.Timeouts != cleanTot.Timeouts {
		t.Fatalf("%d timeouts, want the uncrashed run's %d: a slot was waited for that nobody would redial", tot.Timeouts, cleanTot.Timeouts)
	}
	if tot.Resumed == 0 {
		t.Fatal("no peer accepted the victim's Resume announcement")
	}
	checkNoLeak(t, baseline)
}
