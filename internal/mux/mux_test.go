package mux_test

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/mux"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/wireproto"
)

// testSetup is a shared deployment description for sim-vs-wire-vs-
// virtual runs (mirrors the node package's, which is test-private).
type testSetup struct {
	n      int
	data   *timeseries.Dataset
	scheme *damgardjurik.Scheme
	proto  core.Config
}

func newSetup(t *testing.T, n int, churn float64) testSetup {
	t.Helper()
	data, _ := datasets.GenerateCER(n, randx.New(7, 0))
	scheme, err := damgardjurik.NewTestScheme(128, 4, n, max(2, n/3))
	if err != nil {
		t.Fatal(err)
	}
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

// launch runs the whole population through mux.Launch with listeners
// shared by group participants and returns every participant's result.
func launch(t *testing.T, ts testSetup, group int) []*node.Result {
	t.Helper()
	pop, err := mux.Launch(node.Config{
		N:               ts.n,
		Scheme:          ts.scheme,
		Proto:           ts.proto,
		ExchangeTimeout: 20 * time.Second,
		FinTimeout:      20 * time.Second,
		JoinTimeout:     20 * time.Second,
	}, ts.data, 0, ts.n, group, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pop.Close() })
	results, err := pop.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// launchTCP runs the population as separate daemons: one TCP listener
// per participant, the pre-mux deployment shape.
func launchTCP(t *testing.T, ts testSetup) []*node.Result {
	t.Helper()
	return launch(t, ts, 1)
}

// launchVirtual runs the population as virtual nodes: hostSizes[h]
// participants on host h (consecutive indices), the first host
// bootstrapping the rest. One size covering everything is the
// single-process shape; several exercise the cross-host v2-over-TCP
// path and the membership pump. Launch fills hosts of the first size
// and leaves the remainder to the last one, so the sizes must say so.
func launchVirtual(t *testing.T, ts testSetup, hostSizes ...int) []*node.Result {
	t.Helper()
	group, base := hostSizes[0], 0
	for h, size := range hostSizes {
		if size > group || (size < group && h < len(hostSizes)-1) {
			t.Fatalf("host sizes %v: only the last host may hold fewer than the first", hostSizes)
		}
		base += size
	}
	if base != ts.n {
		t.Fatalf("host sizes cover %d of %d participants", base, ts.n)
	}
	return launch(t, ts, group)
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

// TestVirtualBitMatchesTCPAndSimulator is the acceptance end-to-end of
// the virtual-node runtime: the same 12-participant population run
// three ways — the in-memory simulator, 12 separate TCP daemons, and 12
// virtual nodes behind one mux.Host — releases bit-identical centroids
// with identical schedule accounting, for every participant.
func TestVirtualBitMatchesTCPAndSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	ts := newSetup(t, 12, 0)
	simRes := runSim(t, ts)
	if len(simRes.Centroids) == 0 {
		t.Fatal("simulator produced no centroids")
	}
	tcp := launchTCP(t, ts)
	virt := launchVirtual(t, ts, 12)
	assertCentroidsEqual(t, "virtual node 0 vs sim", simRes.Centroids, virt[0].Centroids)
	if virt[0].AvgMessages != simRes.AvgMessages || virt[0].AvgBytes != simRes.AvgBytes {
		t.Fatalf("mirror accounting diverged: %v/%v vs %v/%v",
			virt[0].AvgMessages, virt[0].AvgBytes, simRes.AvgMessages, simRes.AvgBytes)
	}
	for i := range tcp {
		assertCentroidsEqual(t, "virtual vs tcp", tcp[i].Centroids, virt[i].Centroids)
		if len(virt[i].Centroids) == 0 {
			t.Fatalf("virtual node %d released no centroids", i)
		}
		if virt[i].Counters.Exchanges() == 0 || virt[i].Counters.BytesSent == 0 {
			t.Fatalf("virtual node %d saw no wire traffic: %+v", i, virt[i].Counters)
		}
	}
}

// TestEveryParticipantReleasesIdentically: the dissemination elects one
// perturbed vector and every participant decrypts it, so every
// participant of a networked run releases bit-identical centroids — at
// populations 2, 3 and 12, with the phase lengths a deployment derives,
// over TCP and over virtual nodes alike.
func TestEveryParticipantReleasesIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	for _, n := range []int{2, 3, 12} {
		ts := newSetup(t, n, 0)
		ts.proto.DissCycles, ts.proto.DecryptCycles = 0, 0 // derived, as a deployment's
		tcp, virt := launchTCP(t, ts), launchVirtual(t, ts, n)
		for i := range tcp {
			if len(tcp[i].Centroids) == 0 {
				t.Fatalf("n=%d: participant %d released no centroids", n, i)
			}
			assertCentroidsEqual(t, "tcp participant vs participant 0", tcp[0].Centroids, tcp[i].Centroids)
			assertCentroidsEqual(t, "virtual participant vs tcp participant 0", tcp[0].Centroids, virt[i].Centroids)
			for _, tr := range append(tcp[i].Traces, virt[i].Traces...) {
				if tr.ShareApplications > 1 {
					t.Fatalf("n=%d: participant %d traced %d key-share applications",
						n, i, tr.ShareApplications)
				}
			}
		}
	}
}

// TestVirtualChurnMatchesSimulator pins the virtual runtime under the
// Section 6.1.5 churn model: the shared schedule mirror reproduces the
// simulator's churn draws even though one draw now serves every
// co-located participant.
func TestVirtualChurnMatchesSimulator(t *testing.T) {
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
	virt := launchVirtual(t, ts, 8)
	assertCentroidsEqual(t, "virtual node 0 vs sim (churn)", simRes.Centroids, virt[0].Centroids)
}

// TestVirtualTwoHostsBitMatchesSimulator splits the population across
// two hosts — co-located pairs in process, cross-host pairs on TCP with
// targeted frames, rosters merged through the membership pump — and the
// result must still bit-match the simulator.
func TestVirtualTwoHostsBitMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	ts := newSetup(t, 12, 0)
	simRes := runSim(t, ts)
	virt := launchVirtual(t, ts, 7, 5)
	for i := range virt {
		if i == 0 {
			assertCentroidsEqual(t, "two-host virtual vs sim", simRes.Centroids, virt[0].Centroids)
		}
		if len(virt[i].Centroids) == 0 {
			t.Fatalf("virtual node %d released no centroids", i)
		}
	}
}

// TestPumpDeliversLateLocalNode pins the membership pump's stop rule: a
// participant added to a joining host after its roster reached the
// bootstrap — so that the addition completes the joining host's own
// book — must still reach the bootstrap, or the bootstrap's roster stays
// one short forever.
func TestPumpDeliversLateLocalNode(t *testing.T) {
	ts := newSetup(t, 12, 0)
	newHost := func(bootstrap string) *mux.Host {
		h, err := mux.NewHost(node.Config{
			N: ts.n, Scheme: ts.scheme, Proto: ts.proto,
			Bootstrap: bootstrap, ExchangeTimeout: 5 * time.Second,
		}, ts.data.Dim())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Close() })
		return h
	}
	add := func(h *mux.Host, from, to int) {
		for i := from; i <= to; i++ {
			if _, err := h.AddNode(node.Config{Index: i, Series: ts.data.Row(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	awaitRoster := func(h *mux.Host, want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for h.RosterSize() < want {
			if time.Now().After(deadline) {
				t.Fatalf("bootstrap roster holds %d participants, want %d", h.RosterSize(), want)
			}
			runtime.Gosched()
		}
	}
	a := newHost("")
	add(a, 0, 5)
	b := newHost(a.Addr())
	add(b, 6, 10)
	awaitRoster(a, 11)
	add(b, 11, 11)
	awaitRoster(a, 12)
}

// TestHostCloseNoGoroutineLeak pins host shutdown: accept loop, pump,
// per-connection routers and every virtual node's loops are all joined
// by Close (the cancel_test.go discipline, host edition).
func TestHostCloseNoGoroutineLeak(t *testing.T) {
	ts := newSetup(t, 4, 0)
	baseline := runtime.NumGoroutine()
	h, err := mux.NewHost(node.Config{N: ts.n, Scheme: ts.scheme, Proto: ts.proto}, ts.data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ts.n; i++ {
		if _, err := h.AddNode(node.Config{Index: i, Series: ts.data.Row(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Open a routed connection so shutdown has a live in-flight one to
	// tear down, not just idle loops.
	conn, err := h.Transport().Dial(1, h.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_ = conn.Close()
	waitGoroutines(t, baseline, "after Close")
}

// waitGoroutines polls until the live goroutine count is back at the
// baseline, dumping every stack when it is not within ten seconds.
func waitGoroutines(t *testing.T, baseline int, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d %s\n%s",
				baseline, runtime.NumGoroutine(), when, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDialRacesClose hammers the in-process dialer while the host shuts
// down: a dial either gets a connection whose serve goroutine Close
// joins, or is refused — never a WaitGroup counter raised from zero
// under Close's Wait (a panic, or a serve goroutine Close did not wait
// for), and nothing left running afterwards.
func TestDialRacesClose(t *testing.T) {
	ts := newSetup(t, 4, 0)
	for round := 0; round < 20; round++ {
		baseline := runtime.NumGoroutine()
		h, err := mux.NewHost(node.Config{N: ts.n, Scheme: ts.scheme, Proto: ts.proto}, ts.data.Dim())
		if err != nil {
			t.Fatal(err)
		}
		dial := h.Transport()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					conn, err := dial.Dial(1, h.Addr(), time.Second)
					if err != nil {
						return // host closed
					}
					_ = conn.Close()
				}
			}()
		}
		close(start)
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		if err := h.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wg.Wait()
		waitGoroutines(t, baseline, "after Close")
	}
}

// TestDialCloseAllocs caps what an in-process connection costs before a
// byte is exchanged: its two ends, the host's tracking wrapper and the
// serve goroutine. The queues come from the pool of closed pairs — a
// new pair only while the previous dial's serve goroutine has not
// closed its end yet, which under load is every dial — and its one
// read parks without allocating: queue buffers and the frame-length
// scratch come from the frame pool, deadlines are values, and the
// host's sweeper expires them with one timer.
func TestDialCloseAllocs(t *testing.T) {
	ts := newSetup(t, 4, 0)
	h, err := mux.NewHost(node.Config{N: ts.n, Scheme: ts.scheme, Proto: ts.proto}, ts.data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	dial := h.Transport()
	allocs := testing.AllocsPerRun(2000, func() {
		conn, err := dial.Dial(1, h.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Minute))
		_ = conn.Close()
	})
	if allocs > 6 {
		t.Fatalf("dial + close costs %.1f allocations, want at most 6", allocs)
	}
	t.Logf("dial + close: %.1f allocations", allocs)
}

// TestHostCloseUnparksInProcCalls closes a host while reads on its
// in-process connections are parked with deadlines, at both ends: every
// read returns, no goroutine is left, and the sweeper's heap is empty.
func TestHostCloseUnparksInProcCalls(t *testing.T) {
	ts := newSetup(t, 4, 0)
	baseline := runtime.NumGoroutine()
	h, err := mux.NewHost(node.Config{N: ts.n, Scheme: ts.scheme, Proto: ts.proto}, ts.data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	const conns = 8
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		conn, err := h.Transport().Dial(1, h.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Minute))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := conn.Read(make([]byte, 8)); err == nil {
				t.Error("read on a closed host's connection succeeded")
			}
		}()
	}
	// Each connection parks two reads: the client's, and the host's serve
	// goroutine waiting for the first frame.
	for deadline := time.Now().Add(10 * time.Second); mux.SweepPending(h) < 2*conns; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d reads parked", mux.SweepPending(h), 2*conns)
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := mux.SweepPending(h); n != 0 {
		t.Fatalf("%d entries left in the sweeper's heap after Close", n)
	}
	waitGoroutines(t, baseline, "after Close")
}

// TestConnTrackedOnce pins who tracks a connection to a hosted node: the
// endpoint of the node that serves it, and no other. An in-process
// exchange request parked at node 1 is in node 1's set and not in the
// host's; a TCP connection, which the host's listener accepts and
// routes to node 2, moves out of the host's set into node 2's.
func TestConnTrackedOnce(t *testing.T) {
	ts := newSetup(t, 4, 0)
	shared := node.Config{N: ts.n, Scheme: ts.scheme, Proto: ts.proto}
	provisioned := shared
	dep, err := node.Provision(&provisioned, ts.data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	epoch := dep.Epoch
	h, err := mux.NewHost(shared, ts.data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	nodes := make([]*node.Node, ts.n)
	for i := range nodes {
		if nodes[i], err = h.AddNode(node.Config{Index: i, Series: ts.data.Row(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// request writes the first sum request of the run, from participant
	// 0 to participant to: the nodes are not running, so it parks.
	request := func(conn net.Conn, to int) {
		var e wireproto.Enc
		e.U32(0) // iteration
		e.U32(0) // cycle
		e.U32(0) // sequence
		e.U32(0) // from
		e.U32(uint32(to))
		e.U8(0) // flags
		if err := wireproto.WriteFrameTarget(conn, wireproto.KindSumReq, epoch, to, e.B); err != nil {
			t.Fatal(err)
		}
	}
	// tracked waits until the nodes' endpoints track want connections
	// each, then checks that the host's tracks none.
	tracked := func(what string, want ...int) {
		t.Helper()
		for i, nd := range nodes {
			for deadline := time.Now().Add(10 * time.Second); nd.Endpoint().Conns() != want[i]; {
				if time.Now().After(deadline) {
					t.Fatalf("%s: node %d tracks %d connections, want %d", what, i, nd.Endpoint().Conns(), want[i])
				}
				time.Sleep(time.Millisecond)
			}
		}
		if n := mux.HostConns(h); n != 0 {
			t.Fatalf("%s: the host's endpoint tracks %d connections, want 0", what, n)
		}
	}

	inproc, err := h.Transport().Dial(1, h.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	request(inproc, 1)
	tracked("in-process", 0, 1, 0, 0)

	tcp, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	request(tcp, 2)
	tracked("TCP", 0, 1, 1, 0)
}

// TestAddNodeValidation pins the host-side provisioning checks.
func TestAddNodeValidation(t *testing.T) {
	ts := newSetup(t, 4, 0)
	h, err := mux.NewHost(node.Config{N: ts.n, Scheme: ts.scheme, Proto: ts.proto}, ts.data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.AddNode(node.Config{Index: 0, Series: ts.data.Row(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNode(node.Config{Index: 0, Series: ts.data.Row(0)}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := h.AddNode(node.Config{Index: 1, Series: ts.data.Row(1)[:3]}); err == nil {
		t.Fatal("short series accepted")
	}
}
