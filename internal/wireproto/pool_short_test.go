package wireproto_test

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/mux"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/wireproto"
)

// idleHost is an 8-participant mux.Host with participants 0..3 hosted
// and none of them running: whatever arrives is refused, answered as
// membership traffic, or parked. It comes with the population epoch.
func idleHost(t *testing.T) (*mux.Host, wireproto.Limits, uint64) {
	t.Helper()
	const n, tau = 8, 2
	data, _ := datasets.GenerateCER(n, randx.New(7, 0))
	scheme, err := plain.New(nil, 64, n, tau)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]timeseries.Series, 2)
	for c := range seeds {
		seeds[c] = make(timeseries.Series, data.Dim())
	}
	shared := node.Config{
		N: n, Scheme: scheme,
		Proto: core.Config{
			K: 2, InitCentroids: seeds, DMin: datasets.CERMin, DMax: datasets.CERMax,
			Epsilon: 1e4, MaxIterations: 1, Exchanges: 4, DissCycles: 4, DecryptCycles: 4,
			FracBits: 24, Seed: 21,
		},
	}
	provisioned := shared
	dep, err := node.Provision(&provisioned, data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	h, err := mux.NewHost(shared, data.Dim())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	for i := 0; i < 4; i++ {
		if _, err := h.AddNode(node.Config{Index: i, Series: data.Row(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return h, wireproto.NewLimits(scheme.CiphertextBytes(), 2*(data.Dim()+1), tau, n), dep.Epoch
}

// roundTrip dials the host in process, sends one frame and reads until
// the host hangs up, returning the response frame if there was one.
func roundTrip(t *testing.T, h *mux.Host, lim wireproto.Limits, kind byte, epoch uint64, target int, payload []byte) (wireproto.Frame, bool) {
	t.Helper()
	conn, err := h.Transport().Dial(max(target, 0), h.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wireproto.WriteFrameTarget(conn, kind, epoch, target, payload); err != nil {
		t.Fatal(err)
	}
	f, err := wireproto.ReadFrame(conn, lim.MaxFrameLen)
	if err != nil {
		if err != io.EOF {
			t.Fatalf("kind %d: %v", kind, err)
		}
		return wireproto.Frame{}, false
	}
	return f, true
}

// TestRefusedFramesReturnToPool pins that the short paths hand their
// frame's buffer back: a refused frame is read into a pooled buffer and
// nothing of it is kept, so a stream of refusals allocates no frame
// buffers once the pool is warm — through the host's own refusals (wrong
// epoch, nobody hosted under the target) and through a hosted node's
// (a request whose header names somebody else).
func TestRefusedFramesReturnToPool(t *testing.T) {
	h, lim, epoch := idleHost(t)
	const rounds, size = 32, 30 << 10
	payload := make([]byte, size) // an all-zero exchange header: from 0, to 0
	for _, tc := range []struct {
		name   string
		epoch  uint64
		target int
	}{
		{"host: wrong epoch", epoch + 1, 1},
		{"host: target not hosted", epoch, 6},
		{"node: header names another participant", epoch, 1},
	} {
		refuse := func() {
			if _, answered := roundTrip(t, h, lim, wireproto.KindSumReq, tc.epoch, tc.target, payload); answered {
				t.Fatalf("%s: the frame was answered", tc.name)
			}
		}
		refuse()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			refuse()
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d refusals allocated %d bytes", tc.name, rounds, got)
		if got > rounds*size/4 {
			t.Errorf("%s: %d refusals of a %d-byte frame allocated %d bytes: the frame buffers are not recycled",
				tc.name, rounds, size, got)
		}
	}
	rejected := h.Counters().Rejected
	for _, nd := range h.Nodes() {
		rejected += nd.Counters().Rejected
	}
	if want := int64(3 * (rounds + 1)); rejected != want {
		t.Fatalf("%d frames refused, want %d", rejected, want)
	}
}

// TestMembershipSurvivesFrameReuse runs the membership round trips — to
// the host (untargeted frames) and to a hosted node (targeted ones) — on
// a pool that recycles as aggressively as it can, one idle buffer per
// size class: the frame a hello, resume or view arrived in is released
// once decoded and overwritten by the next frame of its size, so every
// address the book learned from it must have been copied out. Under
// -race a payload touched after its release is additionally a data race
// with the buffer's next user.
func TestMembershipSurvivesFrameReuse(t *testing.T) {
	// Restored after the host has closed — cleanups run last in, first
	// out — since a serve goroutine may still be releasing the frame of
	// the last answer when the test returns.
	t.Cleanup(wireproto.SetPoolKeep(1))
	h, lim, epoch := idleHost(t)

	addr := func(i int) string { return fmt.Sprintf("peer-%d.%s:7000", i, strings.Repeat("x", 40)) }
	view := func(i int) []byte {
		return wireproto.MarshalView([]wireproto.ViewItem{{Index: uint32(i), Addr: addr(i), Heartbeat: 1}})
	}
	var roster wireproto.Frame
	for _, leg := range []struct {
		kind    byte
		target  int
		payload []byte
	}{
		{wireproto.KindHello, -1, wireproto.MarshalHello(wireproto.Hello{Index: 4, Addr: addr(4), N: 8})},
		{wireproto.KindHello, 1, wireproto.MarshalHello(wireproto.Hello{Index: 5, Addr: addr(5), N: 8})},
		{wireproto.KindResume, -1, wireproto.MarshalResume(wireproto.Resume{Index: 6, Addr: addr(6), N: 8})},
		{wireproto.KindResume, 2, wireproto.MarshalResume(wireproto.Resume{Index: 7, Addr: addr(7), N: 8})},
		{wireproto.KindLeave, -1, wireproto.MarshalLeave(wireproto.Leave{Index: 9})},
		{wireproto.KindLeave, 3, wireproto.MarshalLeave(wireproto.Leave{Index: 9})},
		{wireproto.KindView, -1, view(4)},
		{wireproto.KindView, 3, view(5)},
	} {
		f, answered := roundTrip(t, h, lim, leg.kind, epoch, leg.target, leg.payload)
		if answered != (leg.kind != wireproto.KindLeave) {
			t.Fatalf("kind %d to target %d: answered = %v", leg.kind, leg.target, answered)
		}
		roster.Release()
		roster = f
	}
	items, err := wireproto.UnmarshalView(roster.Payload, lim)
	if err != nil {
		t.Fatal(err)
	}
	learned := map[int]string{}
	for _, it := range items {
		learned[int(it.Index)] = it.Addr
	}
	for i := 4; i < 8; i++ {
		if learned[i] != addr(i) {
			t.Errorf("participant %d's address reads %q, want %q", i, learned[i], addr(i))
		}
	}
	if h.RosterSize() != 8 {
		t.Fatalf("roster covers %d of 8 participants", h.RosterSize())
	}
}
