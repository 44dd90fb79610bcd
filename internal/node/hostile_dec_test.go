package node

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/big"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/wireproto"
)

// TestHostileDecLegsRejected sends a real node decryption legs a hostile
// peer could write: a request carrying partial decryptions, parts the
// node already holds, parts outside the lowest τ it keeps, owed parts
// missing, parts and key-shares of the wrong length, share indices the
// deployment does not have or out of order, key-shares the union rule
// does not owe, legs naming another vector, and well-formed requests in
// the two frame layouts this version refuses. Each refused leg is
// counted — Rejected for a leg that frames correctly but fails the
// vetting, BadFrames for a frame the wire layer refuses — is tried once
// only, and leaves the participant's share set as it was. A leg naming
// another vector that carries nothing commits and merges nothing:
// shares over two vectors never meet. The control rows run the same
// exchanges well-formed, and do commit the union.
//
// The rumour rows do the same for released legs: a release carried
// together with entries or a key-share, of the wrong length, holding a
// NaN or an infinity, in a request, missing from the fin of a released
// initiator, or differing by one bit from the node's own release is
// refused; a well-formed release releases the node, and one naming
// another vector merges nothing.
func TestHostileDecLegsRejected(t *testing.T) {
	ts := newSetup(t, 9, 0)
	if tau := ts.scheme.Threshold(); tau != 3 {
		t.Fatalf("τ = %d, the rows are written for 3", tau)
	}
	var cts []homenc.Ciphertext
	for _, v := range []int64{5 << 24, -3 << 24, 7 << 24, 1 << 24} {
		cts = append(cts, ts.scheme.Encrypt(big.NewInt(v)))
	}
	dim := len(cts)
	// share is key-share idx's partial decryptions of cts, n of them.
	share := func(idx, n int) *homenc.Vector {
		ps, err := eesum.DecPartials(ts.scheme, idx, cts[:n], 1)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]homenc.Ciphertext, n)
		for j, p := range ps {
			vals[j].V = p.V
		}
		return homenc.NewVector(vals)
	}
	part := func(idx int) eesum.Part { return eesum.Part{Idx: idx, V: share(idx, dim)} }
	// The peer is participant 0 (key-share 1); the node under test is
	// participant 1 (key-share 2), holding key-share 5's partial
	// decryptions of the elected vector 7. τ is 3: a peer naming share 1
	// is owed share 5 and the node's key-share and owes share 1's part;
	// an empty peer owes its key-share too; a peer naming shares 1, 3
	// and 6 is owed nothing and owes the parts of shares 1 and 3.
	const elected, other = 7, 8
	s := slot{iter: 1, phase: phaseDec, cycle: 2, seq: 0}
	hdr := wireproto.ExchangeHdr{Iter: uint32(s.iter), Cycle: uint32(s.cycle), Seq: uint32(s.seq), From: 0, To: 1}
	// leg names the share indices bare, alone, and carries the parts
	// carry, ascending.
	leg := func(id uint64, bare []int, carry []eesum.Part, fresh *homenc.Vector) *wireproto.DecMsg {
		m := &wireproto.DecMsg{Hdr: hdr, ID: id, Parts: carry, Fresh: fresh}
		for _, idx := range bare {
			m.Shares = append(m.Shares, eesum.Part{Idx: idx})
		}
		m.Shares = append(m.Shares, carry...)
		slices.SortFunc(m.Shares, func(a, b eesum.Part) int { return a.Idx - b.Idx })
		return m
	}
	// A response answers the node's request: its header is the request's.
	respLeg := func(id uint64, bare []int, carry []eesum.Part, fresh *homenc.Vector) *wireproto.DecMsg {
		m := leg(id, bare, carry, fresh)
		m.Hdr.From, m.Hdr.To = 1, 0
		return m
	}
	req := func(id uint64, bare []int, carry []eesum.Part, fresh *homenc.Vector) func(uint64) []byte {
		return reqFrame(wireproto.Marshal(leg(id, bare, carry, fresh)))
	}
	// swapped is a leg naming shares 1 and 3 with their two indices
	// swapped on the wire.
	swapped := func(m *wireproto.DecMsg) []byte {
		b := wireproto.Marshal(m)
		const first = 21 + 8 + 2 // after the header, the identifier and the count
		binary.BigEndian.PutUint32(b[first:], 3)
		binary.BigEndian.PutUint32(b[first+8:], 1)
		return b
	}
	// frameIn writes payload as a decryption request in the given frame
	// version's layout: 1 had no target field, 2 had one.
	frameIn := func(version byte, p []byte) []byte {
		hdrLen := 10
		if version == 2 {
			hdrLen = 14
		}
		b := binary.BigEndian.AppendUint32(nil, uint32(hdrLen+len(p)))
		b = append(b, version, wireproto.KindDecReq)
		b = binary.BigEndian.AppendUint64(b, 0) // the epoch, filled in per node
		if version == 2 {
			b = binary.BigEndian.AppendUint32(b, 1)
		}
		return append(b, p...)
	}
	one, wide := []int{1}, []int{1, 3, 6}
	valid := wireproto.Marshal(leg(elected, one, nil, nil))
	union, wideUnion, unchanged := []int{1, 2, 5}, []int{1, 3, 5}, []int{5}

	type want struct {
		rejected, badFrames, committed int64
		set                            []int // the node's share indices after the exchange
		released                       bool  // the node holds its release after the exchange
	}
	refused := want{rejected: 1, set: unchanged}

	// newNode is the node under test: participant 1.
	newNode := func(t *testing.T) *Node {
		nd, err := New(Config{
			Index: 1, N: ts.n,
			Series: ts.data.Row(1), Scheme: ts.scheme, Proto: ts.proto,
			ExchangeTimeout: time.Second,
			FinTimeout:      time.Second,
			ViewInterval:    -1,
			Policy:          Policy{MaxRetries: 3, Backoff: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		return nd
	}
	// own is the release of the elected vector; flipped differs from it
	// in the last bit of its last value.
	own := make([]float64, releaseDim(newNode(t), dim))
	for j := range own {
		own[j] = 1.5*float64(j) - 3
	}
	flipped := slices.Clone(own)
	flipped[len(flipped)-1] = math.Float64frombits(math.Float64bits(flipped[len(flipped)-1]) ^ 1)
	with := func(at int, x float64) []float64 {
		r := slices.Clone(own)
		r[at] = x
		return r
	}
	// rel is a released leg: the mark, and the release unless it is nil.
	rel := func(id uint64, release []float64) *wireproto.DecMsg {
		return &wireproto.DecMsg{Hdr: hdr, ID: id, Released: true, Release: release}
	}
	relResp := func(id uint64, release []float64) *wireproto.DecMsg {
		m := rel(id, release)
		m.Hdr.From, m.Hdr.To = 1, 0
		return m
	}
	// withEntries and withFresh add what a released leg must not carry.
	withEntries := func(m *wireproto.DecMsg) *wireproto.DecMsg {
		m.Shares = []eesum.Part{{Idx: 1}}
		return m
	}
	withFresh := func(m *wireproto.DecMsg) *wireproto.DecMsg {
		m.Fresh = share(1, dim)
		return m
	}
	relReq := reqFrame(wireproto.Marshal(rel(elected, nil)))
	holdsOwn := want{committed: 1, set: unchanged, released: true}
	refusedReleased := want{rejected: 1, set: unchanged, released: true}
	rows := []struct {
		name string
		// responder rows: the raw request frame (epoch bytes 6..13 are
		// overwritten with the node's) and, when the node answers, the
		// fin leg to send back.
		req func(epoch uint64) []byte
		fin *wireproto.DecMsg
		// initiator rows: the response the peer answers the node with.
		resp *wireproto.DecMsg
		// nodeReleased starts the node released, holding own.
		nodeReleased bool
		want         want
	}{
		{name: "control: request", req: reqFrame(valid), fin: leg(elected, nil, []eesum.Part{part(1)}, nil), want: want{committed: 1, set: union}},
		{name: "control: empty request", req: req(elected, nil, nil, nil), fin: leg(elected, nil, nil, share(1, dim)), want: want{committed: 1, set: union}},
		{name: "control: request naming τ shares", req: req(elected, wide, nil, nil), fin: leg(elected, nil, []eesum.Part{part(1), part(3)}, nil), want: want{committed: 1, set: wideUnion}},
		{name: "request: carries a part", req: req(elected, nil, []eesum.Part{part(1)}, nil), want: refused},
		{name: "request: part set one short", req: req(elected, nil, []eesum.Part{{Idx: 1, V: share(1, dim-1)}}, nil), want: refused},
		{name: "request: part index 0", req: req(elected, []int{0}, nil, nil), want: refused},
		{name: "request: part index above NumShares", req: req(elected, []int{ts.scheme.NumShares() + 1}, nil, nil), want: refused},
		{name: "request: carries a key-share", req: req(elected, nil, nil, share(1, dim)), want: refused},
		{name: "request: indices out of order", req: reqFrame(swapped(leg(elected, []int{1, 3}, nil, nil))), want: refused},
		{name: "request: another vector", req: req(other, one, nil, nil), fin: leg(other, nil, nil, nil), want: want{committed: 1, set: unchanged}},
		{name: "fin: owed part missing", req: reqFrame(valid), fin: leg(elected, nil, nil, nil), want: refused},
		{name: "fin: names an owed part without it", req: reqFrame(valid), fin: leg(elected, one, nil, nil), want: refused},
		{name: "fin: a part the node holds", req: reqFrame(valid), fin: leg(elected, nil, []eesum.Part{part(1), part(5)}, nil), want: refused},
		// The initiator's whole part set: share 6 is outside what the node keeps.
		{name: "fin: carries a part set", req: req(elected, wide, nil, nil), fin: leg(elected, nil, []eesum.Part{part(1), part(3), part(6)}, nil), want: refused},
		{name: "fin: a part the node holds in place of an owed one", req: reqFrame(valid), fin: leg(elected, nil, []eesum.Part{part(5)}, nil), want: refused},
		{name: "fin: a part outside the kept set in place of an owed one", req: req(elected, wide, nil, nil), fin: leg(elected, nil, []eesum.Part{part(1), part(6)}, nil), want: refused},
		{name: "fin: part one short", req: reqFrame(valid), fin: leg(elected, nil, []eesum.Part{{Idx: 1, V: share(1, dim-1)}}, nil), want: refused},
		{name: "fin: key-share one short", req: req(elected, nil, nil, nil), fin: leg(elected, nil, nil, share(1, dim-1)), want: refused},
		{name: "fin: key-share missing", req: req(elected, nil, nil, nil), fin: leg(elected, nil, nil, nil), want: refused},
		{name: "fin: key-share not owed", req: reqFrame(valid), fin: leg(elected, nil, []eesum.Part{part(1)}, share(1, dim)), want: refused},
		{name: "fin: another vector", req: req(elected, nil, nil, nil), fin: leg(other, nil, nil, share(1, dim)), want: refused},
		{name: "request: version-1 frame", req: rawFrame(frameIn(1, valid)), want: want{badFrames: 1, set: unchanged}},
		{name: "request: version-2 frame", req: rawFrame(frameIn(2, valid)), want: want{badFrames: 1, set: unchanged}},
		{name: "control: response", resp: respLeg(elected, nil, []eesum.Part{part(1)}, nil), want: want{committed: 1, set: union}},
		{name: "control: empty response", resp: respLeg(elected, nil, nil, share(1, dim)), want: want{committed: 1, set: union}},
		{name: "control: response naming τ shares", resp: respLeg(elected, []int{6}, []eesum.Part{part(1), part(3)}, nil), want: want{committed: 1, set: wideUnion}},
		{name: "response: owed part missing", resp: respLeg(elected, one, nil, nil), want: refused},
		{name: "response: a part the node holds", resp: respLeg(elected, nil, []eesum.Part{part(1), part(5)}, nil), want: refused},
		{name: "response: a part outside the kept set", resp: respLeg(elected, nil, []eesum.Part{part(1), part(3), part(6)}, nil), want: refused},
		{name: "response: a part the node holds in place of an owed one", resp: respLeg(elected, one, []eesum.Part{part(5)}, nil), want: refused},
		{name: "response: a part outside the kept set in place of an owed one", resp: respLeg(elected, []int{3}, []eesum.Part{part(1), part(6)}, nil), want: refused},
		{name: "response: key-share one short", resp: respLeg(elected, nil, nil, share(1, dim-1)), want: refused},
		{name: "response: key-share missing", resp: respLeg(elected, nil, nil, nil), want: refused},
		{name: "response: key-share over another vector", resp: respLeg(other, nil, nil, share(1, dim)), want: refused},
		{name: "response: another vector", resp: respLeg(other, one, nil, nil), want: want{committed: 1, set: unchanged}},
		{name: "response: another vector carrying a part", resp: respLeg(other, nil, []eesum.Part{part(1)}, nil), want: refused},
		{name: "response: header names another share", resp: func() *wireproto.DecMsg {
			m := respLeg(elected, nil, nil, share(1, dim))
			m.Hdr.To = 1 // the share still files under the scheduled peer's index
			return m
		}(), want: want{committed: 1, set: union}},
		{name: "control: released request", req: relReq, fin: rel(elected, own), want: holdsOwn},
		{name: "control: released request to a released node", req: relReq, fin: rel(elected, own), nodeReleased: true, want: holdsOwn},
		{name: "control: request to a released node", req: reqFrame(valid), fin: leg(elected, nil, nil, nil), nodeReleased: true, want: holdsOwn},
		{name: "request: released, naming entries", req: reqFrame(wireproto.Marshal(withEntries(rel(elected, nil)))), want: refused},
		{name: "request: carries a release", req: reqFrame(wireproto.Marshal(rel(elected, own))), want: refused},
		{name: "fin: a release with entries", req: relReq, fin: withEntries(rel(elected, own)), want: refused},
		{name: "fin: a release with a key-share", req: relReq, fin: withFresh(rel(elected, own)), want: refused},
		{name: "fin: a release one short", req: relReq, fin: rel(elected, own[1:]), want: refused},
		{name: "fin: a release holding a NaN", req: relReq, fin: rel(elected, with(0, math.NaN())), want: refused},
		{name: "fin: a release holding +Inf", req: relReq, fin: rel(elected, with(1, math.Inf(1))), want: refused},
		{name: "fin: a release holding -Inf", req: relReq, fin: rel(elected, with(1, math.Inf(-1))), want: refused},
		{name: "fin: no release after a released request", req: relReq, fin: leg(elected, nil, nil, nil), want: refused},
		{name: "fin: a release one bit off the node's", req: relReq, fin: rel(elected, flipped), nodeReleased: true, want: refusedReleased},
		{name: "control: released response", resp: relResp(elected, own), want: holdsOwn},
		{name: "control: released response naming another vector", resp: relResp(other, own), want: want{committed: 1, set: unchanged}},
		{name: "response: a release with entries", resp: withEntries(relResp(elected, own)), want: refused},
		{name: "response: a release with a key-share", resp: withFresh(relResp(elected, own)), want: refused},
		{name: "response: a release of the wrong length", resp: relResp(elected, append(slices.Clone(own), 1)), want: refused},
		{name: "response: a release holding a NaN", resp: relResp(elected, with(2, math.NaN())), want: refused},
		{name: "response: marked released without a release", resp: relResp(elected, nil), want: refused},
		{name: "response: a release one bit off the node's", resp: relResp(elected, flipped), nodeReleased: true, want: refusedReleased},
		{name: "control: released response to a released node", resp: relResp(elected, own), nodeReleased: true, want: holdsOwn},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nd := newNode(t)
			st := eesum.NewParticipant(nd.env, nd.cfg.Index, nil, eesum.NoiseConfig{})
			st.VecID, st.Vec, st.VecOmega = elected, homenc.NewVector(cts), big.NewInt(1)
			st.StartDecryption(len(own))
			st.DecParts = append(st.DecParts, part(5))
			if row.nodeReleased {
				st.Released = own
			}

			attempts := int64(1)
			if row.resp != nil {
				requests := peerAnswering(t, nd, wireproto.KindDecReq, row.resp)
				nd.initiate(phaseDec, st, 0, s, true)
				attempts = requests.Load()
			} else {
				// A known address keeps the responder waiting for the
				// request instead of giving the peer up early.
				nd.book.Learn(0, "127.0.0.1:1")
				done := make(chan struct{})
				go func() {
					defer close(done)
					nd.respond(phaseDec, st, s, 0)
				}()
				var fin wireproto.Message
				if row.fin != nil {
					fin = row.fin
				}
				sendRequest(t, nd, wireproto.KindDecReq, row.req(nd.epoch), fin)
				<-done
			}

			c := nd.Counters()
			committed := c.Initiated + c.Responded
			if c.Rejected != row.want.rejected || c.BadFrames != row.want.badFrames || committed != row.want.committed {
				t.Fatalf("rejected/bad frames/committed = %d/%d/%d, want %d/%d/%d",
					c.Rejected, c.BadFrames, committed, row.want.rejected, row.want.badFrames, row.want.committed)
			}
			if c.Retries != 0 || attempts != 1 {
				t.Fatalf("the leg was tried %d times with %d retries, want once", attempts, c.Retries)
			}
			var set []int
			for _, e := range st.DecParts {
				set = append(set, e.Idx)
				if e.V.Len() != dim {
					t.Fatalf("key-share %d holds %d partial decryptions", e.Idx, e.V.Len())
				}
			}
			if !slices.Equal(set, row.want.set) {
				t.Fatalf("the node holds key-shares %v after the exchange, want %v", set, row.want.set)
			}
			// A node that settles by union decodes its own release; every
			// other one holds own or none.
			if released := st.Released != nil; released != (row.want.released || len(set) == 3) ||
				(row.want.released && !slices.Equal(st.Released, own)) {
				t.Fatalf("the node holds release %v after the exchange, want own %v: %v", st.Released, row.want.released, own)
			}
		})
	}
}

// reqFrame frames a decryption request payload addressed to participant
// 1 in this version's layout.
func reqFrame(payload []byte) func(epoch uint64) []byte {
	return func(epoch uint64) []byte {
		return frameBytes(wireproto.KindDecReq, epoch, 1, payload)
	}
}

// TestHostileDissLegsRejected sends a real node dissemination legs a
// hostile peer could write: a vector on a leg toward the side holding
// the smaller identifier, a vector missing where it is due, one of the
// wrong length or with no weight, a request carrying a vector, and a fin
// naming an identifier that is neither side's. Each is Rejected, tried
// once, and leaves the node holding its own vector. The control rows
// elect the peer's smaller identifier, or keep the node's.
func TestHostileDissLegsRejected(t *testing.T) {
	ts := newSetup(t, 2, 0)
	// The node under test is participant 1, holding vector 5 of four
	// elements; the peer is participant 0.
	const mine = 5
	s := slot{iter: 1, phase: phaseDiss, cycle: 1, seq: 0}
	hdr := wireproto.ExchangeHdr{Iter: uint32(s.iter), Cycle: uint32(s.cycle), Seq: uint32(s.seq), From: 0, To: 1}
	leg := func(id uint64, vals ...int64) *wireproto.DissMsg {
		m := &wireproto.DissMsg{Hdr: hdr, ID: id}
		if len(vals) > 0 {
			m.CTs, m.Omega = electState(id, vals...).Vec, big.NewInt(1)
		}
		return m
	}
	zeroWeight := leg(3, 1, 2, 3, 4)
	zeroWeight.Omega = nil
	req := func(m *wireproto.DissMsg) func(uint64) []byte {
		return func(epoch uint64) []byte { return frameBytes(wireproto.KindDissReq, epoch, 1, wireproto.Marshal(m)) }
	}
	rows := []struct {
		name    string
		req     func(epoch uint64) []byte
		fin     *wireproto.DissMsg
		resp    *wireproto.DissMsg
		elected uint64 // the node's identifier after the exchange
		reject  bool
	}{
		{name: "control: request from the smaller identifier", req: req(leg(3)), fin: leg(3, 1, 2, 3, 4), elected: 3},
		{name: "control: request from the larger identifier", req: req(leg(9)), fin: leg(mine), elected: mine},
		{name: "request: carries a vector", req: req(leg(3, 1, 2, 3, 4)), reject: true},
		{name: "fin: vector from the larger identifier", req: req(leg(9)), fin: leg(mine, 1, 2, 3, 4), reject: true},
		{name: "fin: vector missing", req: req(leg(3)), fin: leg(3), reject: true},
		{name: "fin: vector one short", req: req(leg(3)), fin: leg(3, 1, 2, 3), reject: true},
		{name: "fin: zero weight", req: req(leg(3)), fin: zeroWeight, reject: true},
		{name: "fin: another identifier", req: req(leg(3)), fin: leg(2, 1, 2, 3, 4), reject: true},
		{name: "control: response from the smaller identifier", resp: leg(3, 1, 2, 3, 4), elected: 3},
		{name: "control: response from the larger identifier", resp: leg(9), elected: mine},
		{name: "response: vector from the larger identifier", resp: leg(9, 1, 2, 3, 4), reject: true},
		{name: "response: vector missing", resp: leg(3), reject: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nd, err := New(Config{
				Index: 1, N: 2,
				Series: ts.data.Row(1), Scheme: ts.scheme, Proto: ts.proto,
				ExchangeTimeout: time.Second,
				FinTimeout:      time.Second,
				ViewInterval:    -1,
				Policy:          Policy{MaxRetries: 3, Backoff: time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = nd.Close() })
			st := electState(mine, 7, 7, 7, 7)
			own := st.Vec

			attempts := int64(1)
			if row.resp != nil {
				requests := peerAnswering(t, nd, wireproto.KindDissReq, row.resp)
				nd.initiate(phaseDiss, st, 0, s, true)
				attempts = requests.Load()
			} else {
				nd.book.Learn(0, "127.0.0.1:1")
				done := make(chan struct{})
				go func() {
					defer close(done)
					nd.respond(phaseDiss, st, s, 0)
				}()
				var fin wireproto.Message
				if row.fin != nil {
					fin = row.fin
				}
				sendRequest(t, nd, wireproto.KindDissReq, row.req(nd.epoch), fin)
				<-done
			}

			c := nd.Counters()
			wantRejected, wantCommitted := int64(0), int64(1)
			if row.reject {
				wantRejected, wantCommitted = 1, 0
			}
			if c.Rejected != wantRejected || c.Initiated+c.Responded != wantCommitted || c.Retries != 0 || attempts != 1 {
				t.Fatalf("rejected/committed/retries/attempts = %d/%d/%d/%d, want %d/%d/0/1",
					c.Rejected, c.Initiated+c.Responded, c.Retries, attempts, wantRejected, wantCommitted)
			}
			switch {
			case row.reject || row.elected == mine:
				if st.VecID != mine || st.Vec != own {
					t.Fatalf("the node holds vector %d, want its own", st.VecID)
				}
			case st.VecID != row.elected || st.Vec.Len() != 4 || st.Vec.CopyValues()[0].V.Int64() != 1:
				t.Fatalf("the node holds vector %d %v, want %d", st.VecID, st.Vec.CopyValues(), row.elected)
			}
		})
	}
}

// rawFrame is a request frame written by hand, whose epoch field (bytes
// 6..13 of every layout) is set to the node's.
func rawFrame(frame []byte) func(epoch uint64) []byte {
	return func(epoch uint64) []byte {
		b := append([]byte(nil), frame...)
		binary.BigEndian.PutUint64(b[6:], epoch)
		return b
	}
}

func frameBytes(kind byte, epoch uint64, target int, payload []byte) []byte {
	var buf bytes.Buffer
	if err := wireproto.WriteFrameTarget(&buf, kind, epoch, target, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// sendRequest plays the initiating peer of a phase whose request is of
// kind req against the node's listener: it writes the request frame
// and, when the node answers with a response, the fin (if any); then it
// waits for the node to hang up.
func sendRequest(t *testing.T, nd *Node, req byte, frame []byte, fin wireproto.Message) {
	t.Helper()
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	f, err := wireproto.ReadFrame(conn, nd.lim.MaxFrameLen)
	if err != nil {
		if err != io.EOF {
			t.Fatalf("reading the node's answer: %v", err)
		}
		return // refused: the node hung up without answering
	}
	f.Release()
	if f.Kind != req+1 {
		t.Fatalf("the node answered with kind %#x", f.Kind)
	}
	if fin != nil {
		if _, err := wireproto.WriteMessage(conn, req+2, nd.epoch, -1, fin); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = conn.Read(make([]byte, 1))
}

// peerAnswering stands up participant 0 as a listener that reads each
// request the node sends it and answers it with resp, a response to a
// request of kind req; the count is of the requests it received.
func peerAnswering(t *testing.T, nd *Node, req byte, resp wireproto.Message) *atomic.Int64 {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	nd.book.Learn(0, ln.Addr().String())
	requests := new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if f, err := wireproto.ReadFrame(conn, nd.lim.MaxFrameLen); err == nil {
				f.Release()
				requests.Add(1)
				_, _ = wireproto.WriteMessage(conn, req+1, nd.epoch, -1, resp)
				_, _ = conn.Read(make([]byte, 1)) // the fin, or the hang-up
			}
			_ = conn.Close()
		}
	}()
	return requests
}
