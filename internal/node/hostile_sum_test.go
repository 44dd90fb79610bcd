package node

import (
	"bytes"
	"errors"
	"math/big"
	"slices"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/journal"
	"chiaroscuro/internal/wireproto"
)

// TestHostileSumLegsRejected sends a real node sum legs a hostile peer
// could write: a state whose vector is one element short or one long, an
// epoch below zero or past the deployment's headroom bound, a payload in
// the layout that carried the means and the noise as two states, and a
// fin that carries a state where it should be bare. Each refused leg is
// counted — Rejected for a leg that frames correctly but fails the
// vetting, BadFrames for a frame the wire layer refuses — is tried once
// only, and leaves the participant's sum and counter as they were. The
// control rows run the same exchanges well-formed, and commit the update
// rule's merge.
//
// A journal checkpoint whose sum segment is in the two-state layout is
// refused as corrupt, so a node never resumes from it.
func TestHostileSumLegsRejected(t *testing.T) {
	ts := newSetup(t, 2, 0)
	const dim = 4
	// The node under test is participant 1, the peer participant 0.
	s := slot{iter: 1, phase: phaseSum, cycle: 1, seq: 0}
	hdr := wireproto.ExchangeHdr{Iter: uint32(s.iter), Cycle: uint32(s.cycle), Seq: uint32(s.seq), From: 0, To: 1}
	state := func(n, epoch int, base int64) eesum.SumState {
		cts := make([]homenc.Ciphertext, n)
		for j := range cts {
			cts[j] = ts.scheme.Encrypt(big.NewInt((base + int64(j)) << 24))
		}
		return eesum.SumState{CTs: cts, Omega: big.NewInt(1), Epoch: epoch}
	}
	mine := state(dim, 2, 10)
	// leg is the peer's state leg: a request, or a response answering
	// the node's request, whose header is the request's.
	leg := func(n, epoch int) *wireproto.SumOut {
		return &wireproto.SumOut{Hdr: hdr, Means: wireproto.SideOf(state(n, epoch, 50)), CtrSigma: 1, CtrOmega: 1}
	}
	respLeg := func(n, epoch int) *wireproto.SumOut {
		m := leg(n, epoch)
		m.Hdr.From, m.Hdr.To = 1, 0
		return m
	}
	req := func(m *wireproto.SumOut) func(uint64) []byte {
		return func(epoch uint64) []byte { return frameBytes(wireproto.KindSumReq, epoch, 1, wireproto.Marshal(m)) }
	}
	// inVersion6 is the two-state payload in the frame layout of the
	// version that sent it.
	inVersion6 := func(m *wireproto.SumOut) func(uint64) []byte {
		return func(epoch uint64) []byte {
			b := frameBytes(wireproto.KindSumReq, epoch, 1, twoStateSum(wireproto.Marshal(m)))
			b[4] = 6
			return b
		}
	}
	fin := wireproto.Fin{Hdr: hdr}
	// bound is the node's headroom bound on a state's epoch (its
	// Env.SumEpochs).
	bound := core.HeadroomNeeded(ts.proto.Exchanges)
	valid, atBound, validResp := leg(dim, 1), leg(dim, bound), respLeg(dim, 1)

	type want struct{ rejected, badFrames, committed int64 }
	refused := want{rejected: 1}
	rows := []struct {
		name string
		// responder rows: the request frame and, when the node answers,
		// the fin leg to send back.
		req func(epoch uint64) []byte
		fin wireproto.Message
		// initiator rows: the response the peer answers the node with.
		resp wireproto.Message
		// sent is the peer's state leg of a control row.
		sent *wireproto.SumOut
		want want
	}{
		{name: "control: request", req: req(valid), fin: fin, sent: valid, want: want{committed: 1}},
		{name: "control: request at the headroom bound", req: req(atBound), fin: fin, sent: atBound, want: want{committed: 1}},
		{name: "request: vector one short", req: req(leg(dim-1, 1)), want: refused},
		{name: "request: vector one long", req: req(leg(dim+1, 1)), want: refused},
		{name: "request: epoch -1", req: req(leg(dim, -1)), want: refused},
		{name: "request: epoch past the headroom bound", req: req(leg(dim, bound+1)), want: refused},
		{name: "request: two-state layout", req: func(epoch uint64) []byte {
			return frameBytes(wireproto.KindSumReq, epoch, 1, twoStateSum(wireproto.Marshal(valid)))
		}, want: refused},
		{name: "request: version-6 frame", req: inVersion6(valid), want: want{badFrames: 1}},
		{name: "fin: carries a state one short", req: req(valid), fin: leg(dim-1, 1), want: refused},
		{name: "fin: carries a state one long", req: req(valid), fin: leg(dim+1, 1), want: refused},
		{name: "control: response", resp: validResp, sent: validResp, want: want{committed: 1}},
		{name: "response: vector one short", resp: respLeg(dim-1, 1), want: refused},
		{name: "response: vector one long", resp: respLeg(dim+1, 1), want: refused},
		{name: "response: epoch -1", resp: respLeg(dim, -1), want: refused},
		{name: "response: epoch past the headroom bound", resp: respLeg(dim, bound+1), want: refused},
		{name: "response: two-state layout", resp: rawPayload(twoStateSum(wireproto.Marshal(respLeg(dim, 1)))), want: refused},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
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
			if nd.env.SumEpochs != bound {
				t.Fatalf("the node bounds epochs at %d, the rows are written for %d", nd.env.SumEpochs, bound)
			}
			st := eesum.NewParticipant(nd.env, nd.cfg.Index, nil, eesum.NoiseConfig{})
			st.Means, st.CtrS = wireproto.SideOf(mine), 0.5
			before := st.Means.CTs.AppendTo(nil)

			attempts := int64(1)
			if row.resp != nil {
				requests := peerAnswering(t, nd, wireproto.KindSumReq, row.resp)
				nd.initiate(phaseSum, st, 0, s, true)
				attempts = requests.Load()
			} else {
				nd.book.Learn(0, "127.0.0.1:1")
				done := make(chan struct{})
				go func() {
					defer close(done)
					nd.respond(phaseSum, st, s, 0)
				}()
				sendRequest(t, nd, wireproto.KindSumReq, row.req(nd.epoch), row.fin)
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
			if row.want.committed == 0 {
				if st.Means.Epoch != mine.Epoch || st.CtrS != 0.5 || !bytes.Equal(st.Means.CTs.AppendTo(nil), before) {
					t.Fatal("a refused leg changed the node's sum")
				}
				return
			}
			theirs := row.sent.Means.State()
			a, b := theirs, mine // the peer initiated
			if row.resp != nil {
				a, b = mine, theirs
			}
			want, err := homenc.MarshalVector(eesum.MergeSum(ts.scheme, a, b, 1).CTs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(st.Means.CTs.AppendTo(nil), want) || st.CtrS != 0.75 {
				t.Fatal("the committed sum is not the update rule's merge")
			}
		})
	}

	t.Run("checkpoint: sum segment in the two-state layout", func(t *testing.T) {
		st := &iterState{Means: wireproto.SideOf(mine), CtrS: 0.5, CtrW: 0.25}
		lim := wireproto.NewLimits(ts.scheme.CiphertextBytes(), dim, ts.scheme.Threshold(), ts.n)
		record := encodeCheckpoint(s, st, wireproto.Counters{Initiated: 3})
		if _, err := decodeCheckpoint(record, lim); err != nil {
			t.Fatalf("the checkpoint as written does not decode: %v", err)
		}
		if _, err := decodeCheckpoint(twoStateCheckpoint(t, record, lim), lim); !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("a two-state sum segment decodes with %v, want ErrCorrupt", err)
		}
	})
}

// twoStateCheckpoint rewrites a checkpoint record with its sum segment
// in the two-state layout (twoStateSum), every other field as it was.
func twoStateCheckpoint(tb testing.TB, p []byte, lim wireproto.Limits) []byte {
	tb.Helper()
	r, sumB, dissB, decB, err := splitCheckpoint(p, lim)
	if err != nil {
		tb.Fatal(err)
	}
	var e wireproto.Enc
	for _, v := range []int{r.pos.iter, r.pos.phase, r.pos.cycle, r.pos.seq} {
		e.U32(uint32(v))
	}
	for _, seg := range [][]byte{twoStateSum(sumB), dissB, decB} {
		e.Blob(seg)
	}
	return r.counters.AppendTo(e.B)
}

// twoStateSum rewrites a sum leg's payload — a header, one state and the
// counter — in the layout before the noise was folded into the means: the
// state twice, as the means and as the noise.
func twoStateSum(p []byte) []byte {
	const hdrLen, ctrLen = 21, 16
	side := p[hdrLen : len(p)-ctrLen]
	return slices.Concat(p[:hdrLen], side, side, p[len(p)-ctrLen:])
}

// rawPayload is a leg written byte by byte.
type rawPayload []byte

func (r rawPayload) Size() int                  { return len(r) }
func (r rawPayload) AppendTo(dst []byte) []byte { return append(dst, r...) }
