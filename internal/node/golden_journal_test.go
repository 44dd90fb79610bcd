package node

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/journal"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/wireproto"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_journal.hex from the current encoder")

const goldenJournal = "testdata/golden_journal.hex"

// TestGoldenJournal pins the journal's bytes on disk: an identity, an
// iteration record and one checkpoint per phase, built from fixed
// values and written through the State's own append paths, must make
// the file testdata/golden_journal.hex holds (rewrite it with -update,
// once, in a change that means to alter the format). Every record of
// the file must then decode and re-encode to itself.
func TestGoldenJournal(t *testing.T) {
	cts := func(base int64) *homenc.Vector {
		v := make([]homenc.Ciphertext, 4)
		for i := range v {
			v[i] = homenc.Ciphertext{V: big.NewInt((base + int64(i)) << 40)}
		}
		v[1].V = new(big.Int).Neg(v[1].V)
		return homenc.NewVector(v)
	}
	partials := func(share int) *homenc.Vector {
		v := make([]homenc.Ciphertext, 4)
		for i := range v {
			v[i] = homenc.Ciphertext{V: big.NewInt(int64(share*1000 + 7*i))}
		}
		return homenc.NewVector(v)
	}
	sumState := func() *iterState {
		return &iterState{
			Means: eesum.SumSide{CTs: cts(3), Omega: big.NewInt(1 << 20), Epoch: 5},
			Noise: eesum.SumSide{CTs: cts(70), Omega: big.NewInt(1 << 20), Epoch: 5},
			CtrS:  2.75,
			CtrW:  0.125,
		}
	}
	dissState := sumState()
	dissState.VecID, dissState.Vec, dissState.VecOmega = 0xC0FFEE, cts(200), big.NewInt(1<<21)
	decState := sumState()
	decState.VecID, decState.Vec, decState.VecOmega = dissState.VecID, dissState.Vec, dissState.VecOmega
	decState.DecParts = []eesum.Part{{Idx: 2, V: partials(2)}, {Idx: 3, V: partials(3)}}
	decState.Own = partials(3)
	// Released by a peer's release: its set stays below τ.
	decState.Released = []float64{1.5, -0.25, 0, 3e300}

	id := identity{digest: 0x0123456789ABCDEF, index: 2, n: 9, epoch: 77, seed: 4242, addr: "127.0.0.1:7421"}
	iter := iterationRecord{
		iter:        2,
		epsIter:     0.25,
		totalBefore: 0.5,
		centroids:   []timeseries.Series{{1.5, -2, 0.25}, nil, {0, 0, 9}},
		traces: []core.IterationTrace{
			{Iteration: 1, CentroidsIn: 3, CentroidsOut: 3, EpsilonSpent: 0.5, SumCycles: 12, DissCycles: 6, DecryptCycles: 8, PreInertia: 10.5, PostInertia: 11.25, ShareApplications: 1},
			{Iteration: 2, CentroidsIn: 3, CentroidsOut: 2, EpsilonSpent: 0.25, SumCycles: 13, DissCycles: 7, DecryptCycles: 9, PreInertia: 9, PostInertia: 9.5},
		},
		counters: wireproto.Counters{
			Initiated: 1, Responded: 2, Timeouts: 3, Rejected: 4, BadFrames: 5, Retries: 6,
			Suspected: 7, Evicted: 8, Resumed: 9, BytesSent: 10, BytesRecv: 11,
		},
	}
	ctrs := iter.counters
	ctrs.Initiated, ctrs.BytesSent = 21, 4096

	path := filepath.Join(t.TempDir(), "node.journal")
	st, err := OpenState(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.saveIdentity(id); err != nil {
		t.Fatal(err)
	}
	if err := st.saveIteration(iter); err != nil {
		t.Fatal(err)
	}
	for _, ck := range []struct {
		pos slot
		st  *iterState
	}{
		{slot{iter: 2, phase: phaseSum, cycle: 3, seq: 0}, sumState()},
		{slot{iter: 2, phase: phaseDiss, cycle: 1, seq: 1}, dissState},
		{slot{iter: 2, phase: phaseDec, cycle: 4, seq: 2}, decState},
	} {
		if err := st.saveCheckpoint(ck.pos, ck.st, ctrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if *update {
		var b strings.Builder
		for h := hex.EncodeToString(got); h != ""; {
			n := min(len(h), 64)
			b.WriteString(h[:n] + "\n")
			h = h[n:]
		}
		if err := os.WriteFile(goldenJournal, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(goldenJournal)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("journal differs from %s at byte %d of %d (want %d bytes)", goldenJournal, i, len(got), len(want))
			}
		}
		t.Fatalf("journal is %d bytes, %s holds %d", len(got), goldenJournal, len(want))
	}

	j, recs, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Close()
	if len(recs) != 5 {
		t.Fatalf("reopened journal holds %d records, want 5", len(recs))
	}
	lim := wireproto.NewLimits(64, 4, 3, 9)
	for i, r := range recs {
		var again []byte
		switch r.Kind {
		case recIdentity:
			dec, err := decodeIdentity(r.Payload)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if dec != id {
				t.Fatalf("identity decodes to %+v, want %+v", dec, id)
			}
			again = encodeIdentity(dec)
		case recIteration:
			dec, err := decodeIteration(r.Payload)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			again = encodeIteration(dec)
		case recCheckpoint:
			dec, err := decodeCheckpoint(r.Payload, lim)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			again = encodeCheckpoint(dec.pos, dec.st, dec.counters)
		default:
			t.Fatalf("record %d has kind %d", i, r.Kind)
		}
		if !bytes.Equal(again, r.Payload) {
			t.Fatalf("record %d (kind %d) re-encodes to other bytes", i, r.Kind)
		}
	}
}
