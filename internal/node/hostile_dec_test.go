package node

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/big"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/wireproto"
)

// TestHostileDecLegsRejected sends a real node decryption legs a hostile
// peer could write: part sets and key-shares of the wrong length, part
// sets under share indices the deployment does not have, and well-formed
// requests in the two frame layouts this version refuses. Each is
// refused and counted — Rejected for a leg that frames correctly but
// fails the vetting, BadFrames for a frame the wire layer refuses — is
// tried once only, and leaves the participant's decryption state as it
// was: a commit would at least have added the node's own key-share. The
// control rows run the same request well-formed, and do commit.
func TestHostileDecLegsRejected(t *testing.T) {
	ts := newSetup(t, 2, 0)
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
	// The peer is participant 0 (key-share 1); the node under test is
	// participant 1.
	s := slot{iter: 1, phase: phaseDec, cycle: 2, seq: 0}
	hdr := wireproto.ExchangeHdr{Iter: uint32(s.iter), Cycle: uint32(s.cycle), Seq: uint32(s.seq), From: 0, To: 1}
	peerState := func(parts map[int]*homenc.Vector) *wireproto.DecMsg {
		return &wireproto.DecMsg{Hdr: hdr, CTs: homenc.NewVector(cts), Omega: big.NewInt(1), Parts: parts}
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
	valid := wireproto.Marshal(peerState(map[int]*homenc.Vector{1: share(1, dim)}))

	type want struct{ rejected, badFrames, committed int64 }
	rows := []struct {
		name string
		// responder rows: the raw request frame (epoch bytes 6..13 are
		// overwritten with the node's) and, when the node answers, the
		// fin leg to send back.
		req func(epoch uint64) []byte
		fin *wireproto.DecMsg
		// initiator rows: the response the peer answers the node with.
		resp *wireproto.DecMsg
		want want
	}{
		{name: "control: request", req: reqFrame(valid), fin: &wireproto.DecMsg{Hdr: hdr, Fresh: share(1, dim)}, want: want{committed: 1}},
		{name: "request: part set one short", req: reqFrame(wireproto.Marshal(peerState(map[int]*homenc.Vector{1: share(1, dim-1)}))), want: want{rejected: 1}},
		{name: "request: part index 0", req: reqFrame(wireproto.Marshal(peerState(map[int]*homenc.Vector{0: share(1, dim)}))), want: want{rejected: 1}},
		{name: "request: part index above NumShares", req: reqFrame(wireproto.Marshal(peerState(map[int]*homenc.Vector{ts.scheme.NumShares() + 1: share(1, dim)}))), want: want{rejected: 1}},
		{name: "fin: key-share one short", req: reqFrame(valid), fin: &wireproto.DecMsg{Hdr: hdr, Fresh: share(1, dim-1)}, want: want{rejected: 1}},
		{name: "request: version-1 frame", req: rawFrame(frameIn(1, valid)), want: want{badFrames: 1}},
		{name: "request: version-2 frame", req: rawFrame(frameIn(2, valid)), want: want{badFrames: 1}},
		{name: "control: response", resp: &wireproto.DecMsg{Hdr: hdr, CTs: homenc.NewVector(cts), Omega: big.NewInt(1), Fresh: share(1, dim)}, want: want{committed: 1}},
		{name: "response: key-share one short", resp: &wireproto.DecMsg{Hdr: hdr, CTs: homenc.NewVector(cts), Omega: big.NewInt(1), Fresh: share(1, dim-1)}, want: want{rejected: 1}},
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
			st := eesum.NewParticipant(nd.env, nd.cfg.Index, nil, eesum.NoiseConfig{})
			st.DecCTs, st.DecOmega, st.DecParts = homenc.NewVector(cts), big.NewInt(1), make(map[int]*homenc.Vector)
			preCTs, preOmega := st.DecCTs, st.DecOmega

			attempts := int64(1)
			if row.resp != nil {
				requests := peerAnswering(t, nd, row.resp)
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
				sendRequest(t, nd, row.req(nd.epoch), row.fin)
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
			if row.want.committed != 0 {
				return
			}
			if st.DecCTs != preCTs || st.DecOmega != preOmega || len(st.DecParts) != 0 {
				t.Fatalf("refused leg changed the state: %d key-shares gathered", len(st.DecParts))
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

// sendRequest plays the initiating peer against the node's listener:
// it writes the request frame and, when the node answers with a
// response, the fin (if any); then it waits for the node to hang up.
func sendRequest(t *testing.T, nd *Node, frame []byte, fin *wireproto.DecMsg) {
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
	if f.Kind != wireproto.KindDecResp {
		t.Fatalf("the node answered with kind %#x", f.Kind)
	}
	if fin != nil {
		if _, err := wireproto.WriteMessage(conn, wireproto.KindDecFin, nd.epoch, -1, fin); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = conn.Read(make([]byte, 1))
}

// peerAnswering stands up participant 0 as a listener that reads each
// request the node sends it and answers it with resp; the count is of
// the requests it received.
func peerAnswering(t *testing.T, nd *Node, resp *wireproto.DecMsg) *atomic.Int64 {
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
				_, _ = wireproto.WriteMessage(conn, wireproto.KindDecResp, nd.epoch, -1, resp)
				_, _ = conn.Read(make([]byte, 1)) // the fin, or the hang-up
			}
			_ = conn.Close()
		}
	}()
	return requests
}
