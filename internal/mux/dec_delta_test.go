package mux_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/mux"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/wireproto"
)

// TestDecryptionLegsCarryOnlyTheDelta taps every connection a
// 30-participant virtual-node run (τ = 5) dials and holds each
// decryption exchange on it to the delta rule, as read off the frames:
// between two sides not yet released, the request names the initiator's
// share indices and carries nothing; the response carries the parts the
// initiator lacks and keeps — the lowest τ of the union of both sets and
// the key-shares that travelled fresh — and no other; the fin the parts
// the responder lacks and keeps. A released side's legs name nothing
// and carry no key-share: its request is only marked, and its response
// and fin carry the release, every one of them the same bits; a side
// facing a released one sends nothing. The run still releases the
// simulator's bits.
func TestDecryptionLegsCarryOnlyTheDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	const n, tau = 30, 5
	ts := newSetup(t, n, 0)
	scheme, err := damgardjurik.NewTestScheme(128, 4, n, tau)
	if err != nil {
		t.Fatal(err)
	}
	ts.scheme = scheme
	simRes := runSim(t, ts)

	tap := &decTap{lim: wireproto.NewLimits(1<<12, 1<<12, tau, n)}
	pop, err := mux.Launch(node.Config{
		N:               n,
		Scheme:          ts.scheme,
		Proto:           ts.proto,
		ExchangeTimeout: 20 * time.Second,
		FinTimeout:      20 * time.Second,
		JoinTimeout:     20 * time.Second,
	}, ts.data, 0, n, n, func(cfg *node.Config) error {
		cfg.Dialer = tapDialer{cfg.Dialer, tap}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pop.Close() })
	results, err := pop.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(r.Centroids) == 0 {
			t.Fatalf("participant %d released no centroids", i)
		}
		assertCentroidsEqual(t, "virtual participant vs simulator", simRes.Centroids, r.Centroids)
	}

	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.bad) > 0 {
		t.Fatalf("%d of %d decryption exchanges broke the delta rule, first: %s", len(tap.bad), tap.exchanges, tap.bad[0])
	}
	// The rule must have been exercised every way: parts did travel, the
	// release spread, and released sides met.
	if tap.parts == 0 || tap.releases == 0 || tap.settled == 0 {
		t.Fatalf("%d exchanges tapped: %d parts carried, %d releases carried, %d between released sides", tap.exchanges, tap.parts, tap.releases, tap.settled)
	}
	t.Logf("%d decryption exchanges, %d between released sides; %d parts carried, %.1f a participant; %d releases carried",
		tap.exchanges, tap.settled, tap.parts, float64(tap.parts)/n, tap.releases)
}

// decTap checks the decryption exchanges of every tapped connection.
type decTap struct {
	lim wireproto.Limits

	mu                                  sync.Mutex
	exchanges, settled, parts, releases int
	release                             []float64 // the first release carried
	bad                                 []string
}

// tapDialer wraps a participant's dialer so that every connection it
// opens is tapped.
type tapDialer struct {
	inner node.Dialer
	tap   *decTap
}

func (d tapDialer) Dial(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := d.inner.Dial(peer, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: d.tap}, nil
}

// tapConn records what its dialing side writes and reads, and hands
// both streams to the tap when it is closed. The dialing side of an
// exchange writes the request and the fin and reads the response.
type tapConn struct {
	net.Conn
	tap     *decTap
	out, in bytes.Buffer
	once    sync.Once
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.in.Write(p[:k])
	return k, err
}

func (c *tapConn) Close() error {
	c.once.Do(func() { c.tap.check(c.out.Bytes(), c.in.Bytes()) })
	return c.Conn.Close()
}

// decLeg is what the check reads of a scanned decryption leg.
type decLeg struct {
	hdr      wireproto.ExchangeHdr
	id       uint64
	names    []int // the share indices the leg names
	carries  []int // those whose partial decryptions it carries
	fresh    bool
	abort    bool
	released bool
	release  []float64
}

// legs scans the decryption legs of a tapped stream, by kind.
func (d *decTap) legs(stream []byte) map[byte]decLeg {
	out := map[byte]decLeg{}
	r := bytes.NewReader(stream)
	for r.Len() > 0 {
		f, err := wireproto.ReadFrame(r, 0)
		if err != nil {
			return out
		}
		if f.Kind >= wireproto.KindDecReq && f.Kind <= wireproto.KindDecFin {
			if v, err := wireproto.ScanDec(f.Payload, d.lim); err == nil {
				l := decLeg{hdr: v.Hdr, id: v.ID, fresh: v.Fresh.Len() > 0, abort: v.Hdr.Flags&wireproto.FlagAbort != 0, released: v.Released(), release: v.Release()}
				for c, i := 0, 0; i < v.Gathered(); i++ {
					idx, carries, next := v.Entry(c)
					l.names = append(l.names, idx)
					if carries {
						l.carries = append(l.carries, idx)
					}
					c = next
				}
				out[f.Kind] = l
			}
		}
		f.Release()
	}
	return out
}

// check holds one tapped connection's decryption exchange, if it
// carried one, to the delta rule.
func (d *decTap) check(written, read []byte) {
	w, r := d.legs(written), d.legs(read)
	req, ok := w[wireproto.KindDecReq]
	resp, answered := r[wireproto.KindDecResp]
	if !ok || !answered {
		return
	}
	fin, finished := w[wireproto.KindDecFin]
	finished = finished && !fin.abort
	tau := d.lim.MaxParts
	var bad []string
	if len(req.carries) > 0 || req.fresh || len(req.release) > 0 {
		bad = append(bad, fmt.Sprintf("%+v: the request carries partial decryptions or a release", req.hdr))
	}
	var releases [][]float64
	for _, l := range []struct {
		name   string
		leg    decLeg
		answer bool
	}{{"request", req, false}, {"response", resp, true}, {"fin", fin, finished}} {
		if !l.leg.released {
			continue
		}
		if len(l.leg.names) > 0 || l.leg.fresh || (l.answer && len(l.leg.release) == 0) {
			bad = append(bad, fmt.Sprintf("%+v: a released %s names %v, carries a key-share %v and %d released values", req.hdr, l.name, l.leg.names, l.leg.fresh, len(l.leg.release)))
		}
		if l.answer {
			releases = append(releases, l.leg.release)
		}
	}
	if finished && fin.released != req.released {
		bad = append(bad, fmt.Sprintf("%+v: the fin is marked released %v, the request %v", req.hdr, fin.released, req.released))
	}
	if req.released || resp.released {
		// Only the release travels to or from a released side.
		if len(resp.carries) > 0 || resp.fresh || (finished && (len(fin.carries) > 0 || fin.fresh)) {
			bad = append(bad, fmt.Sprintf("%+v: a leg of an exchange with a released side carries partial decryptions", req.hdr))
		}
	} else {
		bad = append(bad, d.delta(req, resp, fin, finished, tau)...)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.exchanges++
	if req.released && resp.released {
		d.settled++
	}
	for _, rel := range releases {
		if d.release == nil {
			d.release = rel
		}
		if !slices.EqualFunc(rel, d.release, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			bad = append(bad, fmt.Sprintf("%+v: a leg carries a release other than the first one carried", req.hdr))
		}
	}
	d.releases += len(releases)
	d.parts += len(resp.carries) + len(fin.carries)
	d.bad = append(d.bad, bad...)
}

// delta holds an exchange between two sides not yet released to the
// union rule.
func (d *decTap) delta(req, resp, fin decLeg, finished bool, tau int) []string {
	var bad []string
	// The union both sides keep the lowest τ of. A fresh key-share is
	// its sender's, under the sender's population index plus one.
	union := slices.Concat(req.names, resp.names)
	if resp.fresh {
		union = append(union, int(req.hdr.To)+1)
	}
	if finished && fin.fresh {
		union = append(union, int(req.hdr.From)+1)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	kept := union[:min(len(union), tau)]
	// owed is what a receiver holding mine lacks of theirs and keeps.
	owed := func(mine, theirs []int) []int {
		var due []int
		if req.id != resp.id {
			return due
		}
		for _, idx := range theirs {
			if !slices.Contains(mine, idx) && slices.Contains(kept, idx) {
				due = append(due, idx)
			}
		}
		return due
	}
	if want := owed(req.names, resp.names); !slices.Equal(resp.carries, want) {
		bad = append(bad, fmt.Sprintf("%+v: the response carries the parts of %v, the initiator lacks and keeps %v", req.hdr, resp.carries, want))
	}
	if finished {
		if want := owed(resp.names, req.names); !slices.Equal(fin.carries, want) || len(fin.names) != len(fin.carries) {
			bad = append(bad, fmt.Sprintf("%+v: the fin names %v and carries %v, the responder lacks and keeps %v", req.hdr, fin.names, fin.carries, want))
		}
	}
	return bad
}
