package wireproto

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"math/big"
	"os"
	"slices"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
)

// eagerDec and eagerDiss are the decode-everything forms of a
// decryption and a dissemination leg; eagerUnmarshalDec,
// eagerMarshalDec and their dissemination twins are those decoders and
// encoders, written out field by field with no homenc vector code, as
// the reference the scans are fuzzed against and the golden frames are
// checked against. A part set and Fresh are vectors of integers like
// the ciphertexts: a part set's share index is its key, and the set is
// written in ascending index order. A released leg's values follow its
// mark.
type eagerDec struct {
	Hdr      ExchangeHdr
	ID       uint64
	Parts    map[int][]*big.Int
	Fresh    []*big.Int
	Released bool
	Release  []float64
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
	switch mark := d.U8(); {
	case mark > 1:
		d.Fail("release mark")
	case mark == 1:
		m.Released = true
		n := int(d.U16())
		if n > lim.MaxDim {
			d.Fail("release exceeds bound")
		}
		for i := 0; i < n && d.err == nil; i++ {
			x := d.F64()
			if math.IsNaN(x) || math.IsInf(x, 0) {
				d.Fail("release value not finite")
			}
			m.Release = append(m.Release, x)
		}
	}
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
	if !m.Released {
		e.U8(0)
		return e.B
	}
	e.U8(1)
	e.U16(uint16(len(m.Release)))
	for _, x := range m.Release {
		e.F64(x)
	}
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
// scan accepts exactly what the eager decoder accepted; walking its
// entries visits the eager decode's share indices in ascending order,
// each carrying partial decryptions exactly when the eager entry has
// any; every value it materializes — straight from the view, or later
// from a detached copy — equals the eager decode's, the release bit for
// bit; and a leg relayed from its detached images, naming the same
// indices and carrying the same parts and release, re-encodes to the
// bytes the eager path would have re-marshalled (canonical even when
// the input was not).
func FuzzDecScanMatchesEager(f *testing.F) {
	for _, p := range goldenPayloads(f, "dec-req/untargeted", "dec-resp/untargeted", "dec-fin/untargeted", "dec-fin-abort/untargeted",
		"dec-req-released/untargeted", "dec-resp-released/untargeted", "sum-req/untargeted") {
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
	// A leg between two full sets, naming indices alone, and a mixed one.
	settled := &DecMsg{ID: 7}
	mixed := &DecMsg{ID: 7, Fresh: homenc.NewVector(cts(5, -6))}
	for idx := 1; idx <= 3; idx++ {
		p := eesum.Part{Idx: 2 * idx, V: homenc.NewVector(cts(int64(idx), -int64(idx)))}
		settled.Shares = append(settled.Shares, p)
		mixed.Shares = append(mixed.Shares, p)
		if idx != 2 {
			mixed.Parts = append(mixed.Parts, p)
		}
	}
	f.Add(Marshal(settled))
	f.Add(Marshal(mixed))
	// A checkpoint's decryption state: a set, the own key-share and the
	// release, with a negative zero and a subnormal among its values.
	checkpoint := *mixed
	checkpoint.Released, checkpoint.Release = true, []float64{math.Copysign(0, -1), 5e-324, -7.25}
	f.Add(Marshal(&checkpoint))
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
		relay := DecMsg{Hdr: got.Hdr, ID: got.ID, Fresh: got.Fresh.Copy(), Released: got.Released(), Release: got.Release()}
		if got.Released() != want.Released || !slices.EqualFunc(relay.Release, want.Release, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) ||
			(got.Released() && !got.SameRelease(want.Release)) {
			t.Fatalf("release %v %v, eager decode has %v %v", got.Released(), relay.Release, want.Released, want.Release)
		}
		if got.Gathered() != len(want.Parts) {
			t.Fatalf("%d entries, eager decode has %d", got.Gathered(), len(want.Parts))
		}
		last := -1
		for c, i := 0, 0; i < got.Gathered(); i++ {
			idx, carries, next := got.Entry(c)
			ps, ok := want.Parts[idx]
			if !ok || idx <= last {
				t.Fatalf("entry %d: share %d after %d, eager decode has %v", i, idx, last, slices.Sorted(maps.Keys(want.Parts)))
			}
			last = idx
			if carries != (len(ps) > 0) {
				t.Fatalf("entry %d carries partial decryptions: %v, eager decode has %d", idx, carries, len(ps))
			}
			_, view, _ := got.At(c)
			sameInts(t, "part set", view.Values(), ps)
			entry := eesum.Part{Idx: idx}
			if carries {
				entry.V = got.Part(c)
				relay.Parts = append(relay.Parts, entry)
				// What Release combines: the relayed image, read element by
				// element.
				r := entry.V.Operand().Reader()
				if entry.V.Len() != len(ps) {
					t.Fatalf("part set %d: %d partial decryptions, eager decode has %d", idx, entry.V.Len(), len(ps))
				}
				for j := range ps {
					if p := r.Next(new(big.Int)); p.Cmp(ps[j]) != 0 {
						t.Fatalf("part set %d[%d] = %v, eager decode has %v", idx, j, p, ps[j])
					}
				}
			} else if got.Part(c) != nil {
				t.Fatalf("entry %d carries nothing but detaches a vector", idx)
			}
			relay.Shares = append(relay.Shares, entry)
			c = next
		}
		sameInts(t, "fresh", got.Fresh.Values(), want.Fresh)
		sameInts(t, "relayed fresh", relay.Fresh.CopyValues(), want.Fresh)
		if relay.Size() != len(Marshal(&relay)) || !bytes.Equal(Marshal(&relay), eagerMarshalDec(want)) {
			t.Fatalf("relayed leg re-encodes to\n%x\nthe eager path re-marshalled\n%x", Marshal(&relay), eagerMarshalDec(want))
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
		sameInts(t, "relayed vector", relay.CTs.CopyValues(), want.CTs)
		if relay.Size() != len(Marshal(&relay)) || !bytes.Equal(Marshal(&relay), eagerMarshalDiss(want)) {
			t.Fatalf("relayed leg re-encodes to\n%x\nthe eager path re-marshalled\n%x", Marshal(&relay), eagerMarshalDiss(want))
		}
	})
}
