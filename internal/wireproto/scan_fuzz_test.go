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

// eagerDec is the decode-everything DecMsg the exchange legs used before
// the structural scan; eagerUnmarshalDec and eagerMarshalDec are that
// decoder and encoder, kept verbatim as the reference the scan is
// fuzzed against.
type eagerDec struct {
	Hdr   ExchangeHdr
	CTs   []homenc.Ciphertext
	Omega *big.Int
	Parts map[int][]homenc.PartialDecryption
	Fresh []homenc.PartialDecryption
}

func (d *dec) eagerInt(maxBytes int) *big.Int {
	if d.err != nil {
		return nil
	}
	v, rest, err := homenc.UnmarshalIntBound(d.b, maxBytes)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = rest
	return v
}

func eagerPartials(d *dec, lim Limits) []homenc.PartialDecryption {
	n := int(d.u32())
	if d.err == nil && n > lim.MaxDim+1 {
		d.fail("partials vector exceeds bound")
		return nil
	}
	ps := make([]homenc.PartialDecryption, 0, minInt(n, len(d.b)/9+1))
	for i := 0; i < n && d.err == nil; i++ {
		idx := int(d.u32())
		v := d.eagerInt(lim.MaxCTBytes)
		ps = append(ps, homenc.PartialDecryption{Index: idx, V: v})
	}
	return ps
}

func eagerUnmarshalDec(data []byte, lim Limits) (eagerDec, error) {
	d := dec{b: data}
	m := eagerDec{Hdr: decodeHdr(&d)}
	n := int(d.u32())
	if d.err == nil && n > lim.MaxDim {
		return m, errors.New("wireproto: ciphertext vector exceeds bound")
	}
	m.CTs = make([]homenc.Ciphertext, 0, minInt(n, len(d.b)/5+1))
	for i := 0; i < n && d.err == nil; i++ {
		m.CTs = append(m.CTs, homenc.Ciphertext{V: d.eagerInt(lim.MaxCTBytes)})
	}
	m.Omega = d.eagerInt(lim.MaxCTBytes)
	nParts := int(d.u16())
	if d.err == nil && nParts > lim.MaxParts {
		return m, errors.New("wireproto: partial sets exceed bound")
	}
	m.Parts = make(map[int][]homenc.PartialDecryption, nParts)
	for i := 0; i < nParts && d.err == nil; i++ {
		idx := int(d.u32())
		ps := eagerPartials(&d, lim)
		if d.err == nil {
			if _, dup := m.Parts[idx]; dup {
				return m, errors.New("wireproto: duplicate partial share index")
			}
			m.Parts[idx] = ps
		}
	}
	m.Fresh = eagerPartials(&d, lim)
	return m, d.done()
}

func eagerMarshalPartials(e *enc, ps []homenc.PartialDecryption) {
	e.u32(uint32(len(ps)))
	for _, p := range ps {
		e.u32(uint32(p.Index))
		e.raw(homenc.MarshalInt(p.V))
	}
}

func eagerMarshalDec(m eagerDec) []byte {
	e := enc{b: m.Hdr.appendTo(nil)}
	e.u32(uint32(len(m.CTs)))
	for _, ct := range m.CTs {
		e.raw(homenc.MarshalInt(ct.V))
	}
	e.raw(homenc.MarshalInt(m.Omega))
	e.u16(uint16(len(m.Parts)))
	idxs := make([]int, 0, len(m.Parts))
	for idx := range m.Parts {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		e.u32(uint32(idx))
		eagerMarshalPartials(&e, m.Parts[idx])
	}
	eagerMarshalPartials(&e, m.Fresh)
	return e.bytes()
}

func samePartials(t *testing.T, tag string, got []homenc.PartialDecryption, want []homenc.PartialDecryption) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partials, eager decode has %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || got[i].V.Cmp(want[i].V) != 0 {
			t.Fatalf("%s[%d] = (%d, %v), eager decode has (%d, %v)", tag, i, got[i].Index, got[i].V, want[i].Index, want[i].V)
		}
	}
}

// FuzzDecScanMatchesEager is the differential check behind the
// decode-on-demand receive path: on arbitrary payloads the structural
// scan accepts exactly what the eager decoder accepted, every value it
// materializes — straight from the view, or later from a detached copy
// — equals the eager decode's, and a state relayed from its detached
// images re-encodes to the bytes the eager path would have re-marshalled
// (canonical even when the input was not).
func FuzzDecScanMatchesEager(f *testing.F) {
	raw, err := os.ReadFile("testdata/golden_frames.json")
	if err != nil {
		f.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"dec-req/v1", "dec-resp/v1", "dec-fin/v1", "dec-fin-abort/v1", "sum-req/v1"} {
		frame, err := hex.DecodeString(golden[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4+headerBytes:])
	}
	// Valid but non-canonical integers: a leading zero byte, negative zero.
	e := enc{b: ExchangeHdr{}.appendTo(nil)}
	e.u32(2)
	e.raw([]byte{0x01, 0, 0, 0, 2, 0x00, 0x07, 0x02, 0, 0, 0, 0})
	e.raw([]byte{0x02, 0, 0, 0, 0})
	e.u16(1)
	e.u32(4)
	e.u32(1)
	e.u32(4)
	e.raw([]byte{0x02, 0, 0, 0, 3, 0x00, 0x00, 0x09})
	e.u32(0)
	f.Add(e.bytes())
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
		if got.Hdr != want.Hdr || got.Omega().Cmp(want.Omega) != 0 {
			t.Fatalf("header/weight (%+v, %v), eager decode has (%+v, %v)", got.Hdr, got.Omega(), want.Hdr, want.Omega)
		}
		relay := DecMsg{Hdr: got.Hdr, CTs: got.CTs.Copy(), Omega: got.Omega(), Parts: map[int]*homenc.Partials{}, Fresh: got.Fresh.Copy()}
		cts, relayed := got.CTs.Values(), relay.CTs.Values()
		if got.CTs.Len() != len(want.CTs) || len(cts) != len(want.CTs) || len(relayed) != len(want.CTs) {
			t.Fatalf("%d/%d/%d ciphertexts, eager decode has %d", got.CTs.Len(), len(cts), len(relayed), len(want.CTs))
		}
		for i := range want.CTs {
			if cts[i].V.Cmp(want.CTs[i].V) != 0 || relayed[i].V.Cmp(want.CTs[i].V) != 0 {
				t.Fatalf("ciphertext %d = %v (relayed %v), eager decode has %v", i, cts[i].V, relayed[i].V, want.CTs[i].V)
			}
		}
		if len(got.Parts) != len(want.Parts) {
			t.Fatalf("%d part sets, eager decode has %d", len(got.Parts), len(want.Parts))
		}
		for idx, ps := range want.Parts {
			view, ok := got.Parts[idx]
			if !ok {
				t.Fatalf("part set %d missing from the scan", idx)
			}
			relay.Parts[idx] = view.Copy()
			samePartials(t, "part set", view.Values(), ps)
			samePartials(t, "relayed part set", relay.Parts[idx].Values(), ps)
			share, uniform := view.Share()
			wantUniform := len(ps) > 0
			for _, p := range ps {
				wantUniform = wantUniform && p.Index == ps[0].Index
			}
			if uniform != wantUniform || (uniform && share != ps[0].Index) {
				t.Fatalf("part set %d: Share() = (%d, %v), eager decode has indices %+v", idx, share, uniform, ps)
			}
		}
		samePartials(t, "fresh", got.Fresh.Values(), want.Fresh)
		samePartials(t, "relayed fresh", relay.Fresh.Values(), want.Fresh)
		if relay.Size() != len(Marshal(&relay)) || !bytes.Equal(Marshal(&relay), eagerMarshalDec(want)) {
			t.Fatalf("relayed state re-encodes to\n%x\nthe eager path re-marshalled\n%x", Marshal(&relay), eagerMarshalDec(want))
		}
	})
}
