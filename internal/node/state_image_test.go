package node

import (
	"bytes"
	"math/big"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/wireproto"
)

// TestCheckpointReseedsImages pins the journal side of the wire images:
// a replayed checkpoint hands the restored state the journal's own
// bytes as its images — restoring materializes no vector — so the
// resumed peer's next checkpoint (and its next send) appends those
// images, writes the identical record, and still decodes to the values
// the protocol continues from.
func TestCheckpointReseedsImages(t *testing.T) {
	vec := func(base int64) []homenc.Ciphertext {
		cts := make([]homenc.Ciphertext, 6)
		for i := range cts {
			cts[i] = homenc.Ciphertext{V: big.NewInt((base + int64(i)) << 33)}
		}
		cts[2].V = new(big.Int).Neg(cts[2].V)
		return cts
	}
	partials := func(share int) *homenc.Vector {
		ps := make([]homenc.Ciphertext, 6)
		for i := range ps {
			ps[i] = homenc.Ciphertext{V: big.NewInt(int64(share*100 + i))}
		}
		return homenc.NewVector(ps)
	}
	st := &iterState{
		Means:    eesum.SumSide{CTs: homenc.NewVector(vec(10)), Omega: big.NewInt(12), Epoch: 7},
		CtrS:     3.5,
		CtrW:     0.25,
		VecID:    99,
		Vec:      homenc.NewVector(vec(90)),
		VecOmega: big.NewInt(12),
		DecParts: []eesum.Part{{Idx: 2, V: partials(2)}, {Idx: 5, V: partials(5)}},
	}
	pos := slot{iter: 1, phase: phaseDec, cycle: 4, seq: 1}
	ctrs := wireproto.Counters{Initiated: 8, Responded: 9, BytesSent: 1234}
	lim := wireproto.NewLimits(64, 6, 3, 12)

	record := encodeCheckpoint(pos, st, ctrs)
	restoring := homenc.ReadWireStats()
	ck, err := decodeCheckpoint(record, lim)
	if err != nil {
		t.Fatal(err)
	}
	if got := homenc.ReadWireStats().Materialized - restoring.Materialized; got != 0 {
		t.Fatalf("restoring the checkpoint materialized %d vectors; the journal's bytes should be the states", got)
	}
	if ck.pos != pos || ck.counters != ctrs {
		t.Fatalf("restored position/counters (%+v, %+v), want (%+v, %+v)", ck.pos, ck.counters, pos, ctrs)
	}

	before := homenc.ReadWireStats()
	again := encodeCheckpoint(ck.pos, ck.st, ck.counters)
	after := homenc.ReadWireStats()
	if !bytes.Equal(record, again) {
		t.Fatal("a checkpoint written from the restored state differs from the one it was restored from")
	}
	if sends := after.Sends - before.Sends; sends != 4 {
		t.Fatalf("re-encoding the restored state sent %d vectors, want 4", sends)
	}

	restored := ck.st.Means.State().CTs
	for j, want := range st.Means.State().CTs {
		if got := restored[j].V; got.Cmp(want.V) != 0 {
			t.Fatalf("restored means[%d] = %v, want %v", j, got, want.V)
		}
	}
	if got := ck.st.DecParts[1].V.CopyValues()[3]; ck.st.DecParts[1].Idx != 5 || got.V.Int64() != 503 {
		t.Fatalf("restored partial = %+v", got)
	}
	if got := ck.st.Vec.CopyValues()[2].V; got.Cmp(st.Vec.CopyValues()[2].V) != 0 || ck.st.VecID != 99 {
		t.Fatalf("restored elected ciphertext = %v (vector %d)", got, ck.st.VecID)
	}
}
