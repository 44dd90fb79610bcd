package node

import (
	"bytes"
	"math/big"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/wireproto"
)

// TestSumCommitMaterializesNothing pins the sum half's cost model: a
// commit scans the peer's SumOut frame and merges straight from it into
// the new state's image, as initiator and as responder alike, turning
// no vector into big.Int values — neither the peer's, still in its
// frame, nor this side's, which is an image. The new state is the same
// one the update rule computes from the two states' values.
func TestSumCommitMaterializesNothing(t *testing.T) {
	const dim = 12
	sch, err := plain.New(nil, 64, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	env := &eesum.Env{Scheme: sch, Pack: homenc.PackedCodec{Codec: homenc.NewCodec(24), Slots: 1}, Workers: 2, SumEpochs: 8}
	state := func(base int64, omega int64, epoch int) eesum.SumState {
		cts := make([]homenc.Ciphertext, dim)
		for j := range cts {
			cts[j].V = big.NewInt((base + int64(j)) << 30)
			if j%3 == 0 {
				cts[j].V.Neg(cts[j].V)
			}
		}
		return eesum.SumState{CTs: cts, Omega: big.NewInt(omega), Epoch: epoch}
	}
	lim := wireproto.NewLimits(64, dim, 2, 4)
	// atRest returns a state the way a participant holds it between
	// exchanges: an image, as the journal (or a merge) left it.
	atRest := func(st eesum.SumState) eesum.SumSide {
		v, err := wireproto.ScanSum(wireproto.Marshal(&wireproto.SumOut{Means: wireproto.SideOf(st)}), lim)
		if err != nil {
			t.Fatal(err)
		}
		return v.Means.Copy()
	}
	mine, theirs := state(5, 2, 3), state(900, 7, 5)
	nd := &Node{lim: lim, env: env}
	frame := wireproto.Marshal(&wireproto.SumOut{
		Hdr:      wireproto.ExchangeHdr{Iter: 1, Cycle: 2, Seq: 3, From: 1, To: 0},
		Means:    wireproto.SideOf(theirs),
		CtrSigma: 0.5, CtrOmega: 0.25,
	})
	for _, initiator := range []bool{true, false} {
		st := eesum.NewParticipant(env, 0, nil, eesum.NoiseConfig{})
		st.Means = atRest(mine)
		st.CtrS = 1
		payload := bytes.Clone(frame)
		before := homenc.ReadWireStats()
		h, hdr, ok := sumHalf{}.scan(nd, st, payload, 1, initiator)
		if !ok || hdr.Seq != 3 {
			t.Fatalf("initiator %v: the frame did not scan (header %+v)", initiator, hdr)
		}
		h.prepare(st, true).commit(nd, st, 1, initiator)
		if got := homenc.ReadWireStats().Materialized - before.Materialized; got != 0 {
			t.Errorf("initiator %v: a sum commit materialized %d vectors", initiator, got)
		}
		if !bytes.Equal(payload, frame) {
			t.Errorf("initiator %v: the commit wrote to the frame it read", initiator)
		}
		a, b := mine, theirs
		if !initiator {
			a, b = b, a
		}
		want := eesum.MergeSum(sch, a, b, 1)
		got := st.Means
		if got.Epoch != want.Epoch || got.Omega.Cmp(want.Omega) != 0 {
			t.Fatalf("initiator %v: committed (epoch %d, weight %v), want (%d, %v)", initiator, got.Epoch, got.Omega, want.Epoch, want.Omega)
		}
		wantImg, err := homenc.MarshalVector(want.CTs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.CTs.AppendTo(nil), wantImg) {
			t.Fatalf("initiator %v: committed ciphertexts differ from the update rule's", initiator)
		}
		if st.CtrS != 0.75 || st.CtrW != 0.125 {
			t.Fatalf("initiator %v: counter (%v, %v), want (0.75, 0.125)", initiator, st.CtrS, st.CtrW)
		}
	}
}
