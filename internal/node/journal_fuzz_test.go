package node

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/journal"
	"chiaroscuro/internal/wireproto"
)

// journaledRecords runs a three-participant population with a durable
// journal each and returns every checkpoint and iteration record the
// journals hold, with the decoder limits the run used.
func journaledRecords(tb testing.TB) (ckpts, iters [][]byte, lim wireproto.Limits) {
	tb.Helper()
	ts := newSetup(tb, 3, 0)
	dir := tb.TempDir()
	paths := make([]string, ts.n)
	nodes := make([]*Node, ts.n)
	var bootstrap string
	for i := range nodes {
		paths[i] = filepath.Join(dir, fmt.Sprintf("node-%d.journal", i))
		st, err := OpenState(paths[i])
		if err != nil {
			tb.Fatal(err)
		}
		nd, err := New(Config{
			Index: i, N: ts.n,
			Series: ts.data.Row(i), Scheme: ts.scheme, Proto: ts.proto,
			Bootstrap:       bootstrap,
			ExchangeTimeout: 20 * time.Second,
			FinTimeout:      20 * time.Second,
			JoinTimeout:     20 * time.Second,
			ViewInterval:    200 * time.Millisecond,
			State:           st,
		})
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = nd
		if i == 0 {
			bootstrap = nd.Addr()
		}
	}
	errs := make([]error, ts.n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			_, errs[i] = nd.Run()
		}(i, nd)
	}
	wg.Wait()
	for _, nd := range nodes {
		_ = nd.Close()
	}
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("node %d: %v", i, err)
		}
	}
	for _, path := range paths {
		j, recs, err := journal.Open(path)
		if err != nil {
			tb.Fatal(err)
		}
		_ = j.Close()
		for _, r := range recs {
			switch r.Kind {
			case recCheckpoint:
				ckpts = append(ckpts, r.Payload)
			case recIteration:
				iters = append(iters, r.Payload)
			}
		}
	}
	return ckpts, iters, nodes[0].lim
}

// parentLayoutCheckpoint rewrites a decryption-phase checkpoint with
// its dissemination and decryption segments in the layout before the
// dissemination elected the vector to decrypt: the dissemination
// carried the cleartext correction (here, zeros), and the decryption
// segment the ciphertexts and their weight ahead of the share set.
func parentLayoutCheckpoint(tb testing.TB, p []byte, lim wireproto.Limits) []byte {
	tb.Helper()
	ck, err := decodeCheckpoint(p, lim)
	if err != nil {
		tb.Fatal(err)
	}
	_, sumB, _, _, err := splitCheckpoint(p, lim)
	if err != nil {
		tb.Fatal(err)
	}
	st := ck.st
	diss := wireproto.Enc{B: make([]byte, 21)} // the zero exchange header
	diss.U64(st.VecID)
	diss.U32(uint32(st.Vec.Len()))
	for range st.Vec.Len() {
		diss.F64(0)
	}
	dec := wireproto.Enc{B: make([]byte, 21)}
	dec.B = homenc.AppendInt(st.Vec.AppendTo(dec.B), st.VecOmega)
	dec.U16(uint16(len(st.DecParts)))
	for _, e := range st.DecParts {
		dec.U32(uint32(e.Idx))
		dec.B = e.V.AppendTo(dec.B)
	}
	dec.U32(0) // no fresh partials
	var e wireproto.Enc
	for _, v := range []int{ck.pos.iter, ck.pos.phase, ck.pos.cycle, ck.pos.seq} {
		e.U32(uint32(v))
	}
	for _, seg := range [][]byte{sumB, diss.B, dec.B} {
		e.Blob(seg)
	}
	return ck.counters.AppendTo(e.B)
}

// FuzzDecodeCheckpoint: a checkpoint record — the journal's biggest
// payload, three wire segments and a counter snapshot — never panics
// its decoder, every refusal is journal.ErrCorrupt, and what it accepts
// has a canonical form (the record the encoder writes for the decoded
// state) that decodes and re-encodes to itself byte for byte. The real
// records of a journaled run are canonical already; a record whose
// dissemination and decryption segments are in the layout before the
// dissemination elected the vector to decrypt is corrupt, and so is one
// whose sum segment carries the means and the noise as two states.
func FuzzDecodeCheckpoint(f *testing.F) {
	ckpts, _, lim := journaledRecords(f)
	var withParts []byte
	for _, p := range ckpts {
		ck, err := decodeCheckpoint(p, lim)
		if err != nil {
			f.Fatalf("a journaled checkpoint does not decode: %v", err)
		}
		if !bytes.Equal(encodeCheckpoint(ck.pos, ck.st, ck.counters), p) {
			f.Fatalf("a journaled checkpoint at %+v re-encodes to other bytes", ck.pos)
		}
		if len(ck.st.DecParts) > 0 {
			withParts = p
		}
		f.Add(p)
	}
	if withParts == nil {
		f.Fatal("the journaled run left no checkpoint holding a key-share")
	}
	parent := parentLayoutCheckpoint(f, withParts, lim)
	if _, err := decodeCheckpoint(parent, lim); !errors.Is(err, journal.ErrCorrupt) {
		f.Fatalf("parent-layout dissemination and decryption segments decode with %v, want ErrCorrupt", err)
	}
	f.Add(parent)
	twoState := twoStateCheckpoint(f, withParts, lim)
	if _, err := decodeCheckpoint(twoState, lim); !errors.Is(err, journal.ErrCorrupt) {
		f.Fatalf("a two-state sum segment decodes with %v, want ErrCorrupt", err)
	}
	f.Add(twoState)
	f.Fuzz(func(t *testing.T, p []byte) {
		ck, err := decodeCheckpoint(p, lim)
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) {
				t.Fatalf("refused with %v, which is not ErrCorrupt", err)
			}
			return
		}
		canon := encodeCheckpoint(ck.pos, ck.st, ck.counters)
		again, err := decodeCheckpoint(canon, lim)
		if err != nil {
			t.Fatalf("the canonical form of an accepted checkpoint is refused: %v", err)
		}
		if !bytes.Equal(encodeCheckpoint(again.pos, again.st, again.counters), canon) {
			t.Fatal("the canonical form of an accepted checkpoint re-encodes to other bytes")
		}
	})
}

// FuzzDecodeIteration is FuzzDecodeCheckpoint for the iteration record.
func FuzzDecodeIteration(f *testing.F) {
	_, iters, _ := journaledRecords(f)
	for _, p := range iters {
		r, err := decodeIteration(p)
		if err != nil {
			f.Fatalf("a journaled iteration record does not decode: %v", err)
		}
		if !bytes.Equal(encodeIteration(r), p) {
			f.Fatalf("the journaled iteration record of iteration %d re-encodes to other bytes", r.iter)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := decodeIteration(p)
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) {
				t.Fatalf("refused with %v, which is not ErrCorrupt", err)
			}
			return
		}
		canon := encodeIteration(r)
		again, err := decodeIteration(canon)
		if err != nil {
			t.Fatalf("the canonical form of an accepted record is refused: %v", err)
		}
		if !bytes.Equal(encodeIteration(again), canon) {
			t.Fatal("the canonical form of an accepted record re-encodes to other bytes")
		}
	})
}
