package wireproto

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/big"
	"os"
	"slices"
	"testing"

	"chiaroscuro/internal/homenc"
)

// eagerDec and eagerDiss are the decode-everything forms of a
// decryption and a dissemination leg; eagerUnmarshalDec,
// eagerMarshalDec and their dissemination twins are those decoders and
// encoders, written out field by field with no homenc vector code, as
// the reference the scans are fuzzed against and the golden frames are
// checked against. A part set and Fresh are vectors of integers like
// the ciphertexts: a part set's share index is its key, and the set is
// written in ascending index order.
type eagerDec struct {
	Hdr   ExchangeHdr
	ID    uint64
	Parts map[int][]*big.Int
	Fresh []*big.Int
}

type eagerDiss struct {
	Hdr   ExchangeHdr
	ID    uint64
	CTs   []*big.Int
	Omega *big.Int
}

func (d *Dec) eagerInt(maxBytes int) *big.Int {
	if d.err != nil {
		return nil
	}
	v, rest, err := homenc.UnmarshalIntBound(d.B, maxBytes)
	if err != nil {
		d.err = err
		return nil
	}
	d.B = rest
	return v
}

func eagerInts(d *Dec, maxLen, maxBytes int) []*big.Int {
	n := int(d.U32())
	if d.err == nil && n > maxLen {
		d.Fail("vector exceeds bound")
		return nil
	}
	vs := make([]*big.Int, 0, min(n, len(d.B)/5+1))
	for i := 0; i < n && d.err == nil; i++ {
		vs = append(vs, d.eagerInt(maxBytes))
	}
	return vs
}

func eagerUnmarshalDec(data []byte, lim Limits) (eagerDec, error) {
	d := Dec{B: data}
	m := eagerDec{Hdr: decodeHdr(&d), ID: d.U64()}
	nParts := int(d.U16())
	if d.err == nil && nParts > lim.MaxParts {
		return m, errors.New("wireproto: partial sets exceed bound")
	}
	m.Parts = make(map[int][]*big.Int, nParts)
	last := -1
	for i := 0; i < nParts && d.err == nil; i++ {
		idx := int(d.U32())
		ps := eagerInts(&d, lim.MaxDim+1, lim.MaxCTBytes)
		if d.err == nil {
			if idx <= last {
				return m, errors.New("wireproto: partial share indices not ascending")
			}
			last = idx
			m.Parts[idx] = ps
		}
	}
	m.Fresh = eagerInts(&d, lim.MaxDim+1, lim.MaxCTBytes)
	return m, d.Done()
}

func eagerUnmarshalDiss(data []byte, lim Limits) (eagerDiss, error) {
	d := Dec{B: data}
	m := eagerDiss{Hdr: decodeHdr(&d), ID: d.U64()}
	m.CTs = eagerInts(&d, lim.MaxDim, lim.MaxCTBytes)
	m.Omega = d.eagerInt(lim.MaxCTBytes)
	return m, d.Done()
}

func eagerMarshalInts(e *Enc, vs []*big.Int) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.B = homenc.AppendInt(e.B, v)
	}
}

func eagerMarshalDec(m eagerDec) []byte {
	e := Enc{B: m.Hdr.appendTo(nil)}
	e.U64(m.ID)
	e.U16(uint16(len(m.Parts)))
	idxs := make([]int, 0, len(m.Parts))
	for idx := range m.Parts {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		e.U32(uint32(idx))
		eagerMarshalInts(&e, m.Parts[idx])
	}
	eagerMarshalInts(&e, m.Fresh)
	return e.B
}

func eagerMarshalDiss(m eagerDiss) []byte {
	e := Enc{B: m.Hdr.appendTo(nil)}
	e.U64(m.ID)
	eagerMarshalInts(&e, m.CTs)
	omega := m.Omega
	if omega == nil {
		omega = new(big.Int)
	}
	e.B = homenc.AppendInt(e.B, omega)
	return e.B
}

func sameInts(t *testing.T, tag string, got []homenc.Ciphertext, want []*big.Int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, eager decode has %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i].V.Cmp(want[i]) != 0 {
			t.Fatalf("%s[%d] = %v, eager decode has %v", tag, i, got[i].V, want[i])
		}
	}
}

// goldenPayloads returns the payloads of the named golden frames.
func goldenPayloads(f *testing.F, names ...string) [][]byte {
	raw, err := os.ReadFile("testdata/golden_frames.json")
	if err != nil {
		f.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, name := range names {
		frame, err := hex.DecodeString(golden[name])
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, frame[4+headerBytes:])
	}
	return out
}

// FuzzDecScanMatchesEager is the differential check behind the
// decode-on-demand receive path: on arbitrary payloads the structural
// scan accepts exactly what the eager decoder accepted, every value it
// materializes — straight from the view, or later from a detached copy
// — equals the eager decode's, and a state relayed from its detached
// images re-encodes to the bytes the eager path would have re-marshalled
// (canonical even when the input was not).
func FuzzDecScanMatchesEager(f *testing.F) {
	for _, p := range goldenPayloads(f, "dec-req/untargeted", "dec-resp/untargeted", "dec-fin/untargeted", "dec-fin-abort/untargeted", "sum-req/untargeted") {
		f.Add(p)
	}
	// Valid but non-canonical integers: a leading zero byte, negative zero.
	e := Enc{B: ExchangeHdr{}.appendTo(nil)}
	e.U64(7)
	e.U16(1)
	e.U32(4)
	e.U32(2)
	e.B = append(e.B, 0x01, 0, 0, 0, 2, 0x00, 0x07, 0x02, 0, 0, 0, 0)
	e.U32(1)
	e.B = append(e.B, 0x02, 0, 0, 0, 3, 0x00, 0x00, 0x09)
	f.Add(e.B)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))

	lim := testLimits()
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := eagerUnmarshalDec(data, lim)
		got, gotErr := ScanDec(data, lim)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("scan error %v, eager decode error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Hdr != want.Hdr || got.ID != want.ID {
			t.Fatalf("header/vector (%+v, %d), eager decode has (%+v, %d)", got.Hdr, got.ID, want.Hdr, want.ID)
		}
		relay := DecMsg{Hdr: got.Hdr, ID: got.ID, Parts: map[int]*homenc.Vector{}, Fresh: got.Fresh.Copy()}
		if len(got.Parts) != len(want.Parts) {
			t.Fatalf("%d part sets, eager decode has %d", len(got.Parts), len(want.Parts))
		}
		for i, view := range got.Parts {
			ps, ok := want.Parts[view.Idx]
			if !ok {
				t.Fatalf("part set %d missing from the eager decode", view.Idx)
			}
			if got.ShareAt(i) != view.Idx {
				t.Fatalf("ShareAt(%d) = %d, want %d", i, got.ShareAt(i), view.Idx)
			}
			relay.Parts[view.Idx] = got.PartAt(i)
			sameInts(t, "part set", view.V.Values(), ps)
			// What Release combines: the relayed image decoded as the
			// key-share's partial decryptions, under its key.
			combined := relay.Parts[view.Idx].PartialDecryptions(view.Idx)
			if len(combined) != len(ps) {
				t.Fatalf("part set %d: %d partial decryptions, eager decode has %d", view.Idx, len(combined), len(ps))
			}
			for j, p := range combined {
				if p.Index != view.Idx || p.V.Cmp(ps[j]) != 0 {
					t.Fatalf("part set %d[%d] = (%d, %v), eager decode has (%d, %v)", view.Idx, j, p.Index, p.V, view.Idx, ps[j])
				}
			}
		}
		sameInts(t, "fresh", got.Fresh.Values(), want.Fresh)
		sameInts(t, "relayed fresh", relay.Fresh.Values(), want.Fresh)
		if relay.Size() != len(Marshal(&relay)) || !bytes.Equal(Marshal(&relay), eagerMarshalDec(want)) {
			t.Fatalf("relayed state re-encodes to\n%x\nthe eager path re-marshalled\n%x", Marshal(&relay), eagerMarshalDec(want))
		}
	})
}

// FuzzDissScanMatchesEager is FuzzDecScanMatchesEager for the
// dissemination leg: the scan accepts what the eager decoder accepts,
// the vector and weight it materializes are the eager decode's, and the
// vector relayed from its detached image re-encodes canonically.
func FuzzDissScanMatchesEager(f *testing.F) {
	for _, p := range goldenPayloads(f, "diss-req/untargeted", "diss-resp/untargeted", "diss-fin/untargeted", "diss-fin-abort/untargeted", "dec-req/untargeted") {
		f.Add(p)
	}
	// A valid but non-canonical vector element and weight.
	e := Enc{B: ExchangeHdr{}.appendTo(nil)}
	e.U64(3)
	e.U32(1)
	e.B = append(e.B, 0x01, 0, 0, 0, 2, 0x00, 0x07)
	e.B = append(e.B, 0x01, 0, 0, 0, 2, 0x00, 0x05)
	f.Add(e.B)
	f.Add([]byte{})

	lim := testLimits()
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := eagerUnmarshalDiss(data, lim)
		got, gotErr := ScanDiss(data, lim)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("scan error %v, eager decode error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Hdr != want.Hdr || got.ID != want.ID || got.Omega().Cmp(want.Omega) != 0 || got.Carries() != (len(want.CTs) > 0) {
			t.Fatalf("scan (%+v, %d, %v), eager decode has (%+v, %d, %v)", got.Hdr, got.ID, got.Omega(), want.Hdr, want.ID, want.Omega)
		}
		relay := DissMsg{Hdr: got.Hdr, ID: got.ID, CTs: got.CTs.Copy(), Omega: got.Omega()}
		sameInts(t, "vector", got.CTs.Values(), want.CTs)
		sameInts(t, "relayed vector", relay.CTs.Values(), want.CTs)
		if relay.Size() != len(Marshal(&relay)) || !bytes.Equal(Marshal(&relay), eagerMarshalDiss(want)) {
			t.Fatalf("relayed leg re-encodes to\n%x\nthe eager path re-marshalled\n%x", Marshal(&relay), eagerMarshalDiss(want))
		}
	})
}
