package node_test

import (
	"net"
	"reflect"
	"sync/atomic"
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

// membershipSetup provisions a four-participant deployment for the
// membership tests and returns it with what its participants derive
// alike: the configuration digest and the population epoch.
func membershipSetup(t *testing.T) (n int, data *timeseries.Dataset, scheme *damgardjurik.Scheme, proto core.Config, dep node.Deployment) {
	t.Helper()
	n = 4
	data, _ = datasets.GenerateCER(n, randx.New(7, 0))
	scheme, err := damgardjurik.NewTestScheme(128, 4, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]timeseries.Series, 2)
	for c := range seeds {
		seeds[c] = make(timeseries.Series, data.Dim())
		for j := range seeds[c] {
			seeds[c][j] = 10 + 30*float64(c)
		}
	}
	proto = core.Config{
		K: 2, InitCentroids: seeds, DMin: datasets.CERMin, DMax: datasets.CERMax,
		Epsilon: 1e4, MaxIterations: 1, Exchanges: 10, DissCycles: 8, DecryptCycles: 10,
		FracBits: 24, Seed: 21,
	}
	cfg := node.Config{N: n, Scheme: scheme, Proto: proto}
	if dep, err = node.Provision(&cfg, data.Dim()); err != nil {
		t.Fatal(err)
	}
	return n, data, scheme, proto, dep
}

// reply is what a listener answered one membership frame with.
type reply struct {
	kind   byte // 0: the connection closed without a reply
	roster []wireproto.ViewItem
	reason string
}

// ask sends one untargeted frame of the population epoch on a fresh
// connection and reads the answer, if any.
func ask(t *testing.T, epoch uint64, addr string, kind byte, payload []byte) reply {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wireproto.WriteFrameTarget(conn, kind, epoch, -1, payload); err != nil {
		t.Fatal(err)
	}
	f, err := wireproto.ReadFrame(conn, 0)
	if err != nil {
		return reply{}
	}
	defer f.Release()
	r := reply{kind: f.Kind}
	if f.Kind == wireproto.KindReject {
		rej, err := wireproto.UnmarshalReject(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		r.reason = rej.Reason
		return r
	}
	if r.roster, err = wireproto.UnmarshalView(f.Payload, wireproto.NewLimits(1024, 1024, 8, 64)); err != nil {
		t.Fatalf("reply kind %#x: %v", f.Kind, err)
	}
	return r
}

// TestMembershipParity sends the same membership frames to a standalone
// node and to a mux.Host hosting the same participant: every frame must
// get the same reply kind, roster and refusal reason from both, and move
// their Rejected and Resumed counters alike. The rosters differ only in
// the address the hosted participant advertises (its own listener's, or
// the host's).
func TestMembershipParity(t *testing.T) {
	n, data, scheme, proto, dep := membershipSetup(t)
	digest := dep.Digest
	nd, err := node.New(node.Config{
		Index: 0, N: n, Series: data.Row(0), Scheme: scheme, Proto: proto,
		ViewInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Close() })
	h, err := mux.NewHost(node.Config{N: n, Scheme: scheme, Proto: proto}, data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	if _, err := h.AddNode(node.Config{Index: 0, Series: data.Row(0)}); err != nil {
		t.Fatal(err)
	}

	hello := func(idx int, digest uint64) []byte {
		return wireproto.MarshalHello(wireproto.Hello{Index: uint32(idx), Addr: "192.0.2.1:1", N: uint32(n), Digest: digest})
	}
	resume := func(idx int, digest uint64) []byte {
		return wireproto.MarshalResume(wireproto.Resume{Index: uint32(idx), Addr: "192.0.2.2:2", N: uint32(n), Digest: digest, Iter: 1, Phase: 2, Cycle: 3})
	}
	frames := []struct {
		name     string
		kind     byte
		payload  []byte
		wantKind byte
		rejected int64 // Rejected moves by this much
		resumed  int64 // Resumed moves by this much
	}{
		{"hello", wireproto.KindHello, hello(1, digest), wireproto.KindHelloAck, 0, 0},
		{"hello with a foreign digest", wireproto.KindHello, hello(2, digest^1), wireproto.KindReject, 1, 0},
		{"resume", wireproto.KindResume, resume(2, digest), wireproto.KindResumeAck, 0, 1},
		{"resume with a foreign digest", wireproto.KindResume, resume(3, digest^1), wireproto.KindReject, 1, 0},
		{"view", wireproto.KindView, wireproto.MarshalView([]wireproto.ViewItem{{Index: 3, Addr: "192.0.2.3:3", Heartbeat: 40}}), wireproto.KindView, 0, 0},
		{"leave", wireproto.KindLeave, wireproto.MarshalLeave(wireproto.Leave{Index: 1}), 0, 0, 0},
		{"malformed hello", wireproto.KindHello, []byte{0xFF}, 0, 1, 0},
	}
	// self masks the hosted participant's advertised address.
	self := func(r reply, addr string) reply {
		for i := range r.roster {
			if r.roster[i].Addr == addr {
				r.roster[i].Addr = "self"
			}
		}
		return r
	}
	for _, fr := range frames {
		nd0, h0 := nd.Counters(), h.Counters()
		got := self(ask(t, dep.Epoch, nd.Addr(), fr.kind, fr.payload), nd.Addr())
		want := self(ask(t, dep.Epoch, h.Addr(), fr.kind, fr.payload), h.Addr())
		if got.kind != fr.wantKind || want.kind != fr.wantKind {
			t.Fatalf("%s: node replied %#x, host %#x, want %#x", fr.name, got.kind, want.kind, fr.wantKind)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: node replied %+v, host %+v", fr.name, got, want)
		}
		if fr.wantKind == wireproto.KindReject && got.reason == "" {
			t.Fatalf("%s: refusal without a reason", fr.name)
		}
		nd1, h1 := nd.Counters(), h.Counters()
		if nd1.Rejected-nd0.Rejected != fr.rejected || h1.Rejected-h0.Rejected != fr.rejected {
			t.Fatalf("%s: Rejected moved by %d (node) and %d (host), want %d", fr.name, nd1.Rejected-nd0.Rejected, h1.Rejected-h0.Rejected, fr.rejected)
		}
		if nd1.Resumed-nd0.Resumed != fr.resumed || h1.Resumed-h0.Resumed != fr.resumed {
			t.Fatalf("%s: Resumed moved by %d (node) and %d (host), want %d", fr.name, nd1.Resumed-nd0.Resumed, h1.Resumed-h0.Resumed, fr.resumed)
		}
	}
}

// TestMembershipMalformedRosterReply pins the asking side of a roster
// reply that does not decode. A joining node counts each one as Rejected
// and retries its hello. A host's membership pump counts nothing, reads
// no frame as malformed (the frame is well formed, its roster is not),
// and retries its hello without pushing its roster on that round.
func TestMembershipMalformedRosterReply(t *testing.T) {
	n, data, scheme, proto, dep := membershipSetup(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	// The peer answers every membership frame with its ack kind and an
	// undecodable roster, counting hellos and views as they arrive.
	var hellos, views atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if f, err := wireproto.ReadFrame(conn, 0); err == nil {
				ack := f.Kind
				switch f.Kind {
				case wireproto.KindHello:
					hellos.Add(1)
					ack = wireproto.KindHelloAck
				case wireproto.KindView:
					views.Add(1)
				}
				f.Release()
				_ = wireproto.WriteFrameTarget(conn, ack, dep.Epoch, -1, []byte{0xFF})
			}
			_ = conn.Close()
		}
	}()

	nd, err := node.New(node.Config{
		Index: 0, N: n, Series: data.Row(0), Scheme: scheme, Proto: proto,
		ViewInterval: -1, Bootstrap: ln.Addr().String(), JoinTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Close() })
	if err := nd.Join(); err == nil {
		t.Fatal("join completed on undecodable rosters")
	}
	if got, sent := nd.Counters().Rejected, hellos.Load(); sent == 0 || got != sent {
		t.Fatalf("node counted %d rejected replies to %d hellos", got, sent)
	}

	base := hellos.Load()
	h, err := mux.NewHost(node.Config{N: n, Scheme: scheme, Proto: proto, Bootstrap: ln.Addr().String()}, data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	if _, err := h.AddNode(node.Config{Index: 1, Series: data.Row(1)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hellos.Load() < base+2 {
		if time.Now().After(deadline) {
			t.Fatal("the host's pump did not retry its hello")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c := h.Counters(); c.Rejected != 0 || c.BadFrames != 0 {
		t.Fatalf("host counted rejected/bad frames = %d/%d, want 0/0", c.Rejected, c.BadFrames)
	}
	if v := views.Load(); v != 0 {
		t.Fatalf("host pushed its roster %d times after undecodable hello acks", v)
	}
}

// TestHostResumeReinstatesEveryNode pins the host side of crash
// recovery: each hosted node keeps its own suspicion overlay over the
// shared book, and one resume announcement to the host must lift the
// returning peer's eviction in all of them.
func TestHostResumeReinstatesEveryNode(t *testing.T) {
	n, data, scheme, proto, dep := membershipSetup(t)
	digest := dep.Digest
	h, err := mux.NewHost(node.Config{N: n, Scheme: scheme, Proto: proto}, data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	const back = 3
	var nodes []*node.Node
	for i := 0; i < back; i++ {
		nd, err := h.AddNode(node.Config{Index: i, Series: data.Row(i), Policy: node.Policy{SuspicionK: 1}})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	hello := wireproto.MarshalHello(wireproto.Hello{Index: back, Addr: "192.0.2.3:3", N: uint32(n), Digest: digest})
	if r := ask(t, dep.Epoch, h.Addr(), wireproto.KindHello, hello); r.kind != wireproto.KindHelloAck {
		t.Fatalf("hello answered %#x", r.kind)
	}
	for _, nd := range nodes {
		nd.FailPeer(back)
		if !nd.PeerUnreachable(back) {
			t.Fatalf("node %d did not evict peer %d", nd.Index(), back)
		}
	}
	resume := wireproto.MarshalResume(wireproto.Resume{Index: back, Addr: "192.0.2.3:3", N: uint32(n), Digest: digest})
	if r := ask(t, dep.Epoch, h.Addr(), wireproto.KindResume, resume); r.kind != wireproto.KindResumeAck {
		t.Fatalf("resume answered %#x", r.kind)
	}
	for _, nd := range nodes {
		if nd.PeerUnreachable(back) {
			t.Fatalf("node %d still evicts peer %d after its resume", nd.Index(), back)
		}
	}
}
