package node

import (
	"math"
	"math/big"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// testSetup is a shared deployment description for sim-vs-wire runs.
type testSetup struct {
	n      int
	data   *timeseries.Dataset
	scheme *damgardjurik.Scheme
	proto  core.Config
}

func newSetup(t testing.TB, n int, churn float64) testSetup {
	t.Helper()
	data, _ := datasets.GenerateCER(n, randx.New(7, 0))
	scheme, err := damgardjurik.NewTestScheme(128, 4, n, max(2, n/3))
	if err != nil {
		t.Fatal(err)
	}
	// Data-independent seeds: two flat series at distinct levels.
	seeds := make([]timeseries.Series, 2)
	for c := range seeds {
		s := make(timeseries.Series, data.Dim())
		for j := range s {
			s[j] = 10 + 30*float64(c)
		}
		seeds[c] = s
	}
	return testSetup{
		n:      n,
		data:   data,
		scheme: scheme,
		proto: core.Config{
			K:             2,
			InitCentroids: seeds,
			DMin:          datasets.CERMin,
			DMax:          datasets.CERMax,
			Epsilon:       1e4, // huge budget: noise cannot wipe centroids
			MaxIterations: 1,
			Exchanges:     10,
			DissCycles:    8,
			DecryptCycles: 10,
			FracBits:      24,
			Seed:          21,
			Churn:         churn,
			MidFailure:    churn > 0,
			Workers:       2,
		},
	}
}

// runSim executes the in-memory simulator on the setup.
func runSim(t *testing.T, ts testSetup) *core.Result {
	t.Helper()
	nw, err := core.NewNetwork(ts.data, ts.scheme, ts.proto)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// launchNodes starts the full population as real TCP listeners and runs
// the protocol, returning each node's own result.
func launchNodes(t *testing.T, ts testSetup) []*Result {
	t.Helper()
	nodes := make([]*Node, ts.n)
	var bootstrap string
	for i := 0; i < ts.n; i++ {
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
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results
}

func assertCentroidsEqual(t *testing.T, label string, want, got []timeseries.Series) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d centroids, want %d", label, len(got), len(want))
	}
	for c := range want {
		if (want[c] == nil) != (got[c] == nil) {
			t.Fatalf("%s: centroid %d liveness differs", label, c)
		}
		if want[c] == nil {
			continue
		}
		for j := range want[c] {
			if got[c][j] != want[c][j] {
				t.Fatalf("%s: centroid %d[%d] = %v, want %v (bit mismatch)",
					label, c, j, got[c][j], want[c][j])
			}
		}
	}
}

// TestNetworkedBitMatchesSimulator is the acceptance end-to-end: 12 real
// TCP nodes running test-scheme Damgård–Jurik crypto complete a full
// clustering round over the wire, and participant 0's released
// centroids bit-match the in-memory simulator at the same seed.
func TestNetworkedBitMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	ts := newSetup(t, 12, 0)
	simRes := runSim(t, ts)
	if len(simRes.Centroids) == 0 {
		t.Fatal("simulator produced no centroids")
	}
	results := launchNodes(t, ts)
	assertCentroidsEqual(t, "node 0 vs sim", simRes.Centroids, results[0].Centroids)
	if results[0].AvgMessages != simRes.AvgMessages || results[0].AvgBytes != simRes.AvgBytes {
		t.Fatalf("mirror accounting diverged: %v/%v vs %v/%v",
			results[0].AvgMessages, results[0].AvgBytes, simRes.AvgMessages, simRes.AvgBytes)
	}
	// Every participant finished with released centroids and real wire
	// traffic on the counters.
	for i, r := range results {
		if len(r.Centroids) == 0 {
			t.Fatalf("node %d released no centroids", i)
		}
		if r.Counters.Exchanges() == 0 || r.Counters.BytesSent == 0 {
			t.Fatalf("node %d saw no wire traffic: %+v", i, r.Counters)
		}
	}
}

// TestNetworkedChurnMatchesSimulator runs the same end-to-end under the
// Section 6.1.5 churn model (disconnections + mid-exchange failures).
// The mirror schedule reproduces the sim's churn draws, and the abort
// fin leg reproduces its half-completed exchanges, so the released
// centroids must still bit-match the simulator's churn handling.
func TestNetworkedChurnMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	ts := newSetup(t, 8, 0.3)
	ts.proto.DissCycles = 16
	ts.proto.DecryptCycles = 16
	simRes := runSim(t, ts)
	if len(simRes.Centroids) == 0 {
		t.Fatal("simulator produced no centroids under churn")
	}
	results := launchNodes(t, ts)
	assertCentroidsEqual(t, "node 0 vs sim (churn)", simRes.Centroids, results[0].Centroids)
}

// TestCrashMidExchangeLeavesHalfCompletedState exercises the genuine
// crash path (no abort frame, just silence) on every leg of every
// phase's exchange. A crash before the request or before the response
// leaves both sides untouched, and the side left waiting for the dead
// leg books one timeout. A crash between the initiator's commit and its
// FIN is the Section 6.1.5 half-completed exchange: the initiator holds
// its merged state — exactly the simulator's Exchange(a, b, false) — and
// the responder, whose fin wait books the timeout, applied nothing.
func TestCrashMidExchangeLeavesHalfCompletedState(t *testing.T) {
	ts := newSetup(t, 2, 0)
	vecs := [][]*big.Int{
		{big.NewInt(5 << 24), big.NewInt(-3 << 24), big.NewInt(7 << 24), big.NewInt(1 << 24)},
		{big.NewInt(2 << 24), big.NewInt(9 << 24), big.NewInt(-4 << 24), big.NewInt(6 << 24)},
	}
	var cts []homenc.Ciphertext
	for _, v := range vecs[0] {
		cts = append(cts, ts.scheme.Encrypt(v))
	}
	decrypt := func(cts []homenc.Ciphertext) []*big.Int {
		out := make([]*big.Int, len(cts))
		for j, c := range cts {
			out[j] = ts.scheme.Decrypt(c)
		}
		return out
	}
	samePlain := func(a, b []homenc.Ciphertext) bool {
		pa, pb := decrypt(a), decrypt(b)
		if len(pa) != len(pb) {
			return false
		}
		for j := range pa {
			if pa[j].Cmp(pb[j]) != 0 {
				return false
			}
		}
		return true
	}
	checkSum := func(t *testing.T, who string, got, want eesum.SumState) {
		t.Helper()
		if got.Epoch != want.Epoch || got.Omega.Cmp(want.Omega) != 0 {
			t.Fatalf("%s epoch/omega = (%d, %v), want (%d, %v)", who, got.Epoch, got.Omega, want.Epoch, want.Omega)
		}
		if !samePlain(got.CTs, want.CTs) {
			t.Fatalf("%s plaintexts = %v, want %v", who, decrypt(got.CTs), decrypt(want.CTs))
		}
	}
	checkDec := func(t *testing.T, who string, got, want *iterState) {
		t.Helper()
		if got.VecID != want.VecID || got.VecOmega.Cmp(want.VecOmega) != 0 || !samePlain(got.Vec.CopyValues(), want.Vec.CopyValues()) {
			t.Fatalf("%s decryption state differs from the reference", who)
		}
		if len(got.DecParts) != len(want.DecParts) {
			t.Fatalf("%s holds %d key-shares, want %d", who, len(got.DecParts), len(want.DecParts))
		}
		for i, wp := range want.DecParts {
			idx := wp.Idx
			if got.DecParts[i].Idx != idx {
				t.Fatalf("%s holds key-share %d where the reference holds %d", who, got.DecParts[i].Idx, idx)
			}
			gv, wv := got.DecParts[i].V.CopyValues(), wp.V.CopyValues()
			if len(gv) != len(wv) {
				t.Fatalf("%s key-share %d covers %d elements, want %d", who, idx, len(gv), len(wv))
			}
			for j := range wv {
				if gv[j].V.Cmp(wv[j].V) != 0 {
					t.Fatalf("%s key-share %d element %d differs from the reference", who, idx, j)
				}
			}
		}
	}

	// Each phase builds fresh states for both sides, and a check that,
	// after the exchange, the initiator holds exactly the simulator's
	// Exchange(a, b, false) result when it merged and its own
	// pre-exchange state when it did not, and that the responder holds
	// its own pre-exchange state.
	phases := []struct {
		name   string
		phase  int
		states func(ndA, ndB *Node) (stA, stB *iterState, check func(t *testing.T, initMerged bool))
	}{
		{"sum", phaseSum, func(ndA, ndB *Node) (*iterState, *iterState, func(*testing.T, bool)) {
			// The noise-shares pack to the four plaintexts of a
			// contribution, whatever the deployment's slot count.
			mk := func(nd *Node) *iterState {
				st := eesum.NewParticipant(nd.env, nd.cfg.Index, randx.New(9, uint64(nd.cfg.Index)),
					eesum.NoiseConfig{Lambdas: slices.Repeat([]float64{1}, 4*max(1, nd.env.Pack.Slots)), NShares: 2})
				st.Start(vecs[nd.cfg.Index])
				return st
			}
			stA, stB := mk(ndA), mk(ndB)
			preA, preB := stA.Means.State(), stB.Means.State()
			// Reference: the initiator half of the same exchange, the
			// update rule applied directly to the two initial states.
			merged := eesum.MergeSum(ts.scheme, preA, preB, 1)
			return stA, stB, func(t *testing.T, initMerged bool) {
				wantA := preA
				if initMerged {
					wantA = merged
				}
				checkSum(t, "initiator", stA.Means.State(), wantA)
				checkSum(t, "responder", stB.Means.State(), preB)
			}
		}},
		{"diss", phaseDiss, func(ndA, ndB *Node) (*iterState, *iterState, func(*testing.T, bool)) {
			// The min-identifier rule only ever moves the larger
			// identifier, so the initiator holds it: the responder's merge
			// would leave its state as it was, and its Responded count
			// stands in for it.
			mk := func(nd *Node) *iterState {
				id := uint64(5 - 2*nd.cfg.Index)
				return electState(id, int64(id))
			}
			stA, stB := mk(ndA), mk(ndB)
			refA := mk(ndA)
			refA.ExchangeDiss(mk(ndB), false)
			return stA, stB, func(t *testing.T, initMerged bool) {
				check := func(who string, got, want *iterState) {
					t.Helper()
					g, w := got.Vec.CopyValues(), want.Vec.CopyValues()
					if got.VecID != want.VecID || len(g) != 1 || g[0].V.Cmp(w[0].V) != 0 || got.VecOmega.Cmp(want.VecOmega) != 0 {
						t.Fatalf("%s elected (%d, %v), want (%d, %v)", who, got.VecID, g, want.VecID, w)
					}
				}
				wantA := mk(ndA)
				if initMerged {
					wantA = refA
				}
				check("initiator", stA, wantA)
				check("responder", stB, mk(ndB))
			}
		}},
		{"dec", phaseDec, func(ndA, ndB *Node) (*iterState, *iterState, func(*testing.T, bool)) {
			mk := func(nd *Node) *iterState {
				st := eesum.NewParticipant(nd.env, nd.cfg.Index, nil, eesum.NoiseConfig{})
				st.VecID, st.Vec, st.VecOmega = 7, homenc.NewVector(cts), big.NewInt(1)
				st.StartDecryption(releaseDim(nd, len(cts)))
				return st
			}
			stA, stB := mk(ndA), mk(ndB)
			// Reference: the same exchange between two in-memory
			// participants, ending half-completed.
			refA := mk(ndA)
			refA.ExchangeDec(mk(ndB), false)
			return stA, stB, func(t *testing.T, initMerged bool) {
				wantA := mk(ndA)
				if initMerged {
					wantA = refA
				}
				checkDec(t, "initiator", stA, wantA)
				checkDec(t, "responder", stB, mk(ndB))
			}
		}},
	}
	// The responder never merges: no row lets a FIN through. A merge is
	// booked as one commit (Initiated, Responded) on the side that made it.
	legs := []struct {
		name                       string
		leg                        int
		initMerged                 bool
		initTimeouts, respTimeouts int64
	}{
		{"req", LegReq, false, 0, 1},
		{"resp", LegResp, false, 1, 0},
		{"fin", LegFin, true, 0, 1},
	}
	for _, p := range phases {
		t.Run(p.name, func(t *testing.T) {
			for _, l := range legs {
				t.Run(l.name, func(t *testing.T) {
					mk := func(idx int) *Node {
						nd, err := New(Config{
							Index: idx, N: 2,
							Series: ts.data.Row(idx), Scheme: ts.scheme, Proto: ts.proto,
							ExchangeTimeout: time.Second,
							FinTimeout:      300 * time.Millisecond,
							ViewInterval:    -1,
							// Both sides crash at the row's leg; each only
							// ever consults the hook for the legs it sends.
							CrashHook: func(leg, phase, iter, cycle, seq int) bool { return leg == l.leg },
						})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { _ = nd.Close() })
						return nd
					}
					ndA, ndB := mk(0), mk(1)
					ndA.book.Learn(1, ndB.Addr())
					ndB.book.Learn(0, ndA.Addr())
					stA, stB, check := p.states(ndA, ndB)

					s := slot{iter: 1, phase: p.phase, cycle: 0, seq: 0}
					done := make(chan struct{})
					go func() {
						defer close(done)
						ndB.respond(p.phase, stB, s, 0)
					}()
					ndA.initiate(p.phase, stA, 1, s, true)
					<-done

					check(t, l.initMerged)
					ca, cb := ndA.Counters(), ndB.Counters()
					wantInitiated := int64(0)
					if l.initMerged {
						wantInitiated = 1
					}
					if ca.Initiated != wantInitiated || ca.Timeouts != l.initTimeouts {
						t.Fatalf("initiator initiated/timeouts = %d/%d, want %d/%d", ca.Initiated, ca.Timeouts, wantInitiated, l.initTimeouts)
					}
					if cb.Responded != 0 || cb.Timeouts != l.respTimeouts {
						t.Fatalf("responder responded/timeouts = %d/%d, want 0/%d", cb.Responded, cb.Timeouts, l.respTimeouts)
					}
					if ca.Responded != 0 || cb.Initiated != 0 || ca.Rejected+cb.Rejected != 0 || ca.Retries+cb.Retries != 0 {
						t.Fatalf("unexpected counters: initiator %+v, responder %+v", ca, cb)
					}
				})
			}
		})
	}
}

// electState is a participant holding the elected vector id: the
// given values as ciphertexts, with weight 1.
func electState(id uint64, vals ...int64) *iterState {
	cts := make([]homenc.Ciphertext, len(vals))
	for j, v := range vals {
		cts[j].V = big.NewInt(v)
	}
	return &iterState{VecID: id, Vec: homenc.NewVector(cts), VecOmega: big.NewInt(1)}
}

// TestLeaveMarksPeerGone checks the graceful departure path: a leave
// notice removes the peer from the address book so no exchange dials it.
func TestLeaveMarksPeerGone(t *testing.T) {
	ts := newSetup(t, 2, 0)
	cfgA := Config{Index: 0, N: 2, Series: ts.data.Row(0), Scheme: ts.scheme, Proto: ts.proto, ViewInterval: -1}
	ndA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ndA.Close() })
	cfgB := Config{Index: 1, N: 2, Series: ts.data.Row(1), Scheme: ts.scheme, Proto: ts.proto,
		Bootstrap: ndA.Addr(), ViewInterval: -1, JoinTimeout: 5 * time.Second}
	ndB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ndB.Join(); err != nil {
		t.Fatal(err)
	}
	if got := ndA.book.Addr(1); got != ndB.Addr() {
		t.Fatalf("bootstrap learned %q for peer 1, want %q", got, ndB.Addr())
	}
	if err := ndB.Leave(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ndA.book.Addr(1) != "" {
		if time.Now().After(deadline) {
			t.Fatal("leave notice did not mark the peer gone")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNewRejectsMismatchedCentroids pins the shared provisioning check:
// init centroids shorter than the participant's series are refused at
// construction, as the simulator refuses them, rather than surfacing as
// a length-mismatch panic once the run builds its first contribution.
func TestNewRejectsMismatchedCentroids(t *testing.T) {
	ts := newSetup(t, 2, 0)
	proto := ts.proto
	proto.InitCentroids = []timeseries.Series{{10, 10, 10}, {40, 40, 40}}
	nd, err := New(Config{Index: 0, N: 2, Series: ts.data.Row(0), Scheme: ts.scheme, Proto: proto, ViewInterval: -1})
	if err == nil {
		_ = nd.Close()
		t.Fatalf("3-point centroids accepted for a %d-point series", ts.data.Dim())
	}
}

// TestNewRefusesSeriesOutsideRange: a participant's noise is calibrated
// to [DMin, DMax], so its own series at the range's top is accepted and
// one with a measure above it, or a NaN, is refused at construction.
func TestNewRefusesSeriesOutsideRange(t *testing.T) {
	ts := newSetup(t, 2, 0)
	for _, c := range []struct {
		v  float64
		ok bool
	}{{datasets.CERMax, true}, {1e4, false}, {math.NaN(), false}} {
		row := ts.data.Row(0).Clone()
		for j := range row {
			row[j] = datasets.CERMax
		}
		row[len(row)-1] = c.v
		nd, err := New(Config{Index: 0, N: 2, Series: row, Scheme: ts.scheme, Proto: ts.proto, ViewInterval: -1})
		if err == nil {
			_ = nd.Close()
		}
		if (err == nil) != c.ok {
			t.Errorf("a series ending in %g: New error %v, want accepted %v", c.v, err, c.ok)
		}
	}
}

// TestRegistryOrdering pins the registry contract: an early request
// parks until its slot opens, a stale one is refused, and a slot nobody
// serves expires at its deadline.
func TestRegistryOrdering(t *testing.T) {
	r := newRegistry(nil)
	s0 := slot{iter: 1, phase: phaseSum, cycle: 0, seq: 0}
	s1 := slot{iter: 1, phase: phaseSum, cycle: 0, seq: 3}
	c1, c2 := newFakeConn(), newFakeConn()
	if tl, ok := r.deliver(s1, inbound{conn: c1}); !ok || tl != nil {
		t.Fatal("early delivery refused or claimed")
	}
	early := &tailSlot{s: s1}
	if in, ok := r.open(early, time.Now().Add(time.Second)); !ok || in.conn != c1 {
		t.Fatal("parked request not claimed by its slot's open")
	}
	r.finish(early, false, 0)
	r.advance(slot{iter: 1, phase: phaseDiss})
	if _, ok := r.deliver(s0, inbound{conn: c2}); ok {
		t.Fatal("stale delivery accepted")
	}
	if !c2.closed.Load() {
		t.Fatal("stale connection left open")
	}
	const due = 20 * time.Millisecond
	unserved := &tailSlot{s: slot{iter: 2, phase: phaseSum}}
	start := time.Now()
	if _, ok := r.open(unserved, start.Add(due)); ok {
		t.Fatal("open invented a request")
	}
	status := r.waitTail(unserved, time.Second)
	for status == tailPending {
		status = r.waitTail(unserved, time.Second)
	}
	if status != tailExpired || time.Since(start) < due {
		t.Fatalf("unserved slot ended %v after %v, want expired at its %v deadline", status, time.Since(start), due)
	}
}

// TestRegistrySlotOrder pins what keeps responder slots in schedule
// order: while one slot is open, a request for a later slot parks —
// its deliverer does not serve it — and only that slot's own open
// claims it.
func TestRegistrySlotOrder(t *testing.T) {
	r := newRegistry(nil)
	s0 := slot{iter: 1, phase: phaseSum, cycle: 0}
	s1 := slot{iter: 1, phase: phaseSum, cycle: 1}
	cur := &tailSlot{s: s0}
	if _, ok := r.open(cur, time.Now().Add(time.Second)); ok {
		t.Fatal("open invented a request")
	}
	later := newFakeConn()
	if tl, ok := r.deliver(s1, inbound{conn: later}); !ok || tl != nil {
		t.Fatal("a request for a later slot was refused or claimed while an earlier slot is open")
	}
	tl, ok := r.deliver(s0, inbound{conn: newFakeConn()})
	if !ok || tl != cur {
		t.Fatal("the request for the open slot was not claimed by its deliverer")
	}
	if _, ok := r.finish(tl, false, 0); ok {
		t.Fatal("closing the open slot handed out another slot's request")
	}
	if r.waitTail(cur, time.Second) != tailClosed {
		t.Fatal("served slot left open")
	}
	next := &tailSlot{s: s1}
	if in, ok := r.open(next, time.Now().Add(time.Second)); !ok || in.conn != later || later.closed.Load() {
		t.Fatal("the later slot's open did not claim the request parked for it")
	}
}

// TestRegistryAwaitParkedAllocatesNothing pins the fast path of a slot
// whose request is already parked: the request is almost always there
// before the responder opens its slot (initiators run ahead), and
// claiming it must not pay for the timer only an actual wait needs.
func TestRegistryAwaitParkedAllocatesNothing(t *testing.T) {
	const runs = 100
	r := newRegistry(nil)
	tails := make([]tailSlot, runs+1) // AllocsPerRun adds one warm-up call
	for i := range tails {
		tails[i] = tailSlot{s: slot{iter: 1, phase: phaseSum, cycle: i}}
		if _, ok := r.deliver(tails[i].s, inbound{conn: newFakeConn()}); !ok {
			t.Fatal("delivery refused")
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		cur := &tails[next]
		if _, ok := r.open(cur, time.Now().Add(time.Second)); !ok {
			t.Fatal("parked request not claimed by its slot's open")
		}
		r.finish(cur, false, 0)
		next++
		r.advance(slot{iter: 1, phase: phaseSum, cycle: next})
	})
	if allocs != 0 {
		t.Fatalf("claiming a parked request allocates %.0f objects per slot, want 0", allocs)
	}
	if r.timer != nil {
		t.Fatal("claiming a parked request armed the wait timer")
	}
}

// TestRegistryCycleAllocatesNothing pins the registry's steady state:
// once its maps have their size and its one wait timer exists, a
// delivery, the open that claims it, the finish that closes the slot,
// and a second slot that expires unserved allocate nothing — no channel
// per slot, no timer per wait.
func TestRegistryCycleAllocatesNothing(t *testing.T) {
	const runs = 200
	r := newRegistry(nil)
	conn := newFakeConn()
	var served, unserved tailSlot
	pos := 0
	cycle := func() {
		s := slot{iter: 1, phase: phaseSum, cycle: pos}
		if _, ok := r.deliver(s, inbound{conn: conn}); !ok {
			t.Fatal("delivery refused")
		}
		served = tailSlot{s: s}
		if _, ok := r.open(&served, time.Now().Add(time.Second)); !ok {
			t.Fatal("parked request not claimed by its slot's open")
		}
		r.finish(&served, false, 0)
		if r.waitTail(&served, time.Second) != tailClosed {
			t.Fatal("served slot left open")
		}
		unserved = tailSlot{s: slot{iter: 1, phase: phaseSum, cycle: pos, seq: 1}}
		if _, ok := r.open(&unserved, time.Now().Add(100*time.Microsecond)); ok {
			t.Fatal("open invented a request")
		}
		status := r.waitTail(&unserved, time.Second)
		for status == tailPending {
			status = r.waitTail(&unserved, time.Second)
		}
		if status != tailExpired {
			t.Fatalf("unserved slot ended %v, want expired", status)
		}
		pos++
		r.advance(slot{iter: 1, phase: phaseSum, cycle: pos})
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("a deliver → open → finish cycle and an expiring slot allocate %.0f objects, want 0", allocs)
	}
}

// fakeConn is a net.Conn stub recording Close for registry tests.
type fakeConn struct {
	net.Conn
	closed atomic.Bool
}

func newFakeConn() *fakeConn { return &fakeConn{} }

func (f *fakeConn) Close() error {
	f.closed.Store(true)
	return nil
}
