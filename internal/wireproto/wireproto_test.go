package wireproto

import (
	"bytes"
	"errors"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
)

func testLimits() Limits { return NewLimits(64, 16, 4, 32) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrameTarget(&buf, KindSumReq, 42, -1, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameTarget(&buf, KindLeave, 42, -1, nil); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindSumReq || f.Epoch != 42 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame mismatch: %+v", f)
	}
	f2, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Kind != KindLeave || len(f2.Payload) != 0 {
		t.Fatalf("second frame mismatch: %+v", f2)
	}
}

func TestFrameRejectsOversizeAndBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameTarget(&buf, KindView, 1, -1, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 100); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversize frame: %v, want ErrMalformed", err)
	}
	// Any other version byte — the two earlier layouts' included — is
	// refused as malformed.
	for _, version := range []byte{1, 2, 99} {
		raw := bytes.Clone(buf.Bytes())
		raw[4] = version
		if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrMalformed) ||
			!strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: %v, want a malformed-version error", version, err)
		}
	}
	// A length prefix shorter than the header is refused.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 2, 1, 1}), 0); err == nil {
		t.Fatal("undersize frame accepted")
	}
}

func TestHelloViewLeaveRoundTrip(t *testing.T) {
	lim := testLimits()
	h := Hello{Index: 7, Addr: "127.0.0.1:9000", N: 12}
	got, err := UnmarshalHello(MarshalHello(h), lim)
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	items := []ViewItem{
		{Index: 0, Addr: "127.0.0.1:9000", Heartbeat: 3},
		{Index: 5, Addr: "10.0.0.8:1234", Heartbeat: -1},
	}
	gotItems, err := UnmarshalView(MarshalView(items), lim)
	if err != nil || !reflect.DeepEqual(items, gotItems) {
		t.Fatalf("view round trip: %+v, %v", gotItems, err)
	}
	l := Leave{Index: 3}
	gotLeave, err := UnmarshalLeave(MarshalLeave(l))
	if err != nil || gotLeave != l {
		t.Fatalf("leave round trip: %+v, %v", gotLeave, err)
	}
}

func TestViewRejectsHostileCount(t *testing.T) {
	lim := testLimits()
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := UnmarshalView(hostile, lim); err == nil {
		t.Fatal("hostile view count accepted")
	}
}

func sumState(vals ...int64) eesum.SumState {
	cts := make([]homenc.Ciphertext, len(vals))
	for i, v := range vals {
		cts[i] = homenc.Ciphertext{V: big.NewInt(v)}
	}
	return eesum.SumState{CTs: cts, Omega: big.NewInt(3), Epoch: 5}
}

func sumStatesEqual(a, b eesum.SumState) bool {
	if len(a.CTs) != len(b.CTs) || a.Epoch != b.Epoch || a.Omega.Cmp(b.Omega) != 0 {
		return false
	}
	for i := range a.CTs {
		if a.CTs[i].V.Cmp(b.CTs[i].V) != 0 {
			return false
		}
	}
	return true
}

func TestSumMsgRoundTrip(t *testing.T) {
	lim := testLimits()
	m := SumMsg{
		Hdr:      ExchangeHdr{Iter: 1, Cycle: 2, Seq: 3, From: 4, To: 5},
		Means:    sumState(10, -20, 30),
		CtrSigma: 12.5,
		CtrOmega: 1,
	}
	got, err := UnmarshalSum(MarshalSum(m), lim)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hdr != m.Hdr || got.CtrSigma != m.CtrSigma || got.CtrOmega != m.CtrOmega {
		t.Fatalf("header/counter mismatch: %+v", got)
	}
	if !sumStatesEqual(got.Means, m.Means) {
		t.Fatal("sum state mismatch")
	}
}

func TestSumMsgRejectsOversizeDim(t *testing.T) {
	lim := testLimits()
	cts := make([]homenc.Ciphertext, lim.MaxDim+1)
	for i := range cts {
		cts[i] = homenc.Ciphertext{V: big.NewInt(int64(i))}
	}
	m := SumMsg{Means: eesum.SumState{CTs: cts, Omega: big.NewInt(1)}}
	if _, err := UnmarshalSum(MarshalSum(m), lim); err == nil {
		t.Fatal("oversize dimension accepted")
	}
}

func TestDissAndFinRoundTrip(t *testing.T) {
	lim := testLimits()
	hdr := ExchangeHdr{Iter: 2, Seq: 9, From: 1, To: 2}
	for _, m := range []DissMsg{
		{Hdr: hdr, ID: 0xDEAD},
		{Hdr: hdr, ID: 0xBEEF, CTs: homenc.NewVector(cts(15, -225)), Omega: big.NewInt(6)},
	} {
		wire := Marshal(&m)
		got, err := ScanDiss(wire, lim)
		if err != nil || got.ID != m.ID || got.Hdr != m.Hdr || len(wire) != m.Size() {
			t.Fatalf("diss round trip: %+v, %v", got, err)
		}
		if got.Carries() != (m.CTs != nil) || got.Omega().Cmp(orZero(m.Omega)) != 0 {
			t.Fatalf("diss vector: carries %v, weight %v", got.Carries(), got.Omega())
		}
		if m.CTs != nil && got.CTs.Values()[1].V.Int64() != -225 {
			t.Fatalf("diss vector values %v", got.CTs.Values())
		}
	}
	// A fin is its header alone, read back the way a responder reads it.
	f := Fin{Hdr: ExchangeHdr{Iter: 2, Cycle: 1, Seq: 9, From: 1, To: 2, Flags: FlagAbort}}
	gotF, err := PeekHdr(Marshal(f))
	if err != nil || gotF != f.Hdr || f.Size() != len(Marshal(f)) {
		t.Fatalf("fin round trip: %+v, %v", gotF, err)
	}
}

// TestDissBoundsRejected: a dissemination leg is refused, before its
// vector is built, when the vector is longer than MaxDim, an element or
// the weight is wider than MaxCTBytes, or trailing bytes follow.
func TestDissBoundsRejected(t *testing.T) {
	lim := testLimits()
	wide := new(big.Int).Lsh(big.NewInt(1), uint(8*lim.MaxCTBytes))
	long := make([]int64, lim.MaxDim+1)
	for _, c := range []struct {
		name string
		m    DissMsg
	}{
		{"vector over MaxDim", DissMsg{ID: 1, CTs: homenc.NewVector(cts(long...)), Omega: big.NewInt(1)}},
		{"element over MaxCTBytes", DissMsg{ID: 1, CTs: homenc.NewVector([]homenc.Ciphertext{{V: wide}}), Omega: big.NewInt(1)}},
		{"weight over its bound", DissMsg{ID: 1, CTs: homenc.NewVector(cts(3)), Omega: wide}},
	} {
		if _, err := ScanDiss(Marshal(&c.m), lim); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	ok := Marshal(&DissMsg{ID: 1, CTs: homenc.NewVector(cts(3)), Omega: big.NewInt(1)})
	if _, err := ScanDiss(ok, lim); err != nil {
		t.Fatalf("control leg refused: %v", err)
	}
	if _, err := ScanDiss(append(ok, 0), lim); err == nil {
		t.Error("trailing byte accepted")
	}
}

func cts(vals ...int64) []homenc.Ciphertext {
	out := make([]homenc.Ciphertext, len(vals))
	for i, v := range vals {
		out[i] = homenc.Ciphertext{V: big.NewInt(v)}
	}
	return out
}

func TestDecMsgRoundTrip(t *testing.T) {
	lim := testLimits()
	one := eesum.Part{Idx: 1, V: homenc.NewVector(cts(21, 22))}
	three := eesum.Part{Idx: 3, V: homenc.NewVector(cts(11, 12))}
	four := eesum.Part{Idx: 4, V: homenc.NewVector(cts(41, 42))}
	// Share 1 is named alone: its part stays behind.
	m := DecMsg{
		Hdr:    ExchangeHdr{Iter: 1, Cycle: 4, Seq: 0, From: 2, To: 6},
		ID:     0xC0FFEE,
		Shares: []eesum.Part{one, three, four},
		Parts:  []eesum.Part{three, four},
		Fresh:  homenc.NewVector(cts(31, 32)),
	}
	wire := Marshal(&m)
	if len(wire) != m.Size() {
		t.Fatalf("encoded %d bytes, Size() = %d", len(wire), m.Size())
	}
	got, err := ScanDec(wire, lim)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hdr != m.Hdr || got.Elected() != m.ID || got.Gathered() != 3 {
		t.Fatalf("dec header mismatch: %+v", got)
	}
	// Encoding is canonical: a leg rebuilt from the images it arrived
	// in — no value materialized — re-encodes to the identical bytes.
	relay := DecMsg{Hdr: got.Hdr, ID: got.ID, Fresh: got.Fresh.Copy()}
	for c, i := 0, 0; i < got.Gathered(); i++ {
		idx, carries, next := got.Entry(c)
		if idx != m.Shares[i].Idx || carries != (idx != 1) {
			t.Fatalf("entry %d = (%d, %v), want (%d, %v)", i, idx, carries, m.Shares[i].Idx, idx != 1)
		}
		entry := eesum.Part{Idx: idx}
		if carries {
			entry.V = got.Part(c)
			relay.Parts = append(relay.Parts, entry)
		}
		relay.Shares = append(relay.Shares, entry)
		c = next
	}
	if v := relay.Parts[0].V.CopyValues(); v[1].V.Int64() != 12 {
		t.Fatalf("share 3's part = %v", v)
	}
	fresh := got.Fresh.Values()
	if len(fresh) != 2 || fresh[0].V.Int64() != 31 || fresh[1].V.Int64() != 32 {
		t.Fatalf("fresh mismatch: %+v", fresh)
	}
	if !bytes.Equal(wire, Marshal(&relay)) {
		t.Fatal("dec encoding not canonical")
	}
	// A leg naming indices alone costs 8 bytes an index, past the empty
	// key-share and the release mark.
	bare := DecMsg{Hdr: m.Hdr, ID: m.ID, Shares: m.Shares}
	if got, want := bare.Size(), hdrSize+8+2+3*8+4+1; got != want {
		t.Fatalf("an indices-only leg of 3 shares is %d bytes, want %d", got, want)
	}
	// A released leg costs 8 bytes a released value.
	released := DecMsg{Hdr: m.Hdr, ID: m.ID, Released: true, Release: []float64{1, 2, 3}}
	if got, want := released.Size(), hdrSize+8+2+4+1+2+3*8; got != want || len(Marshal(&released)) != want {
		t.Fatalf("a released leg of 3 values is %d bytes (%d marshalled), want %d", got, len(Marshal(&released)), want)
	}
}

// TestDecMsgRejectsDuplicateShares: a share set must come in strictly
// ascending share index, so a repeated index — or any other order — is
// refused.
func TestDecMsgRejectsDuplicateShares(t *testing.T) {
	lim := testLimits()
	for _, idxs := range [][2]uint32{{2, 2}, {3, 1}} {
		// Hand-build a payload whose two part sets come in this order.
		e := Enc{B: ExchangeHdr{}.appendTo(nil)}
		e.U64(7) // the vector
		e.U16(2) // two part sets
		for _, idx := range idxs {
			e.U32(idx)
			e.U32(1) // one partial
			e.B = homenc.AppendInt(e.B, big.NewInt(7))
		}
		e.U32(0) // no fresh partials
		if _, err := ScanDec(e.B, lim); err == nil {
			t.Fatalf("share indices %v accepted", idxs)
		}
	}
}

func TestGarbagePayloadsError(t *testing.T) {
	lim := testLimits()
	garbage := [][]byte{
		nil,
		{0x00},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		bytes.Repeat([]byte{0xAB}, 64),
	}
	for _, g := range garbage {
		if _, err := UnmarshalSum(g, lim); err == nil {
			t.Fatalf("sum accepted garbage %x", g)
		}
		if _, err := ScanDec(g, lim); err == nil {
			t.Fatalf("dec accepted garbage %x", g)
		}
		if _, err := ScanDiss(g, lim); err == nil {
			t.Fatalf("diss accepted garbage %x", g)
		}
		if _, err := UnmarshalHello(g, lim); err == nil {
			t.Fatalf("hello accepted garbage %x", g)
		}
	}
}

func TestCounterSet(t *testing.T) {
	var cs CounterSet
	cs.Initiated.Add(3)
	cs.Responded.Add(4)
	cs.BytesSent.Add(100)
	snap := cs.Snapshot()
	if snap.Exchanges() != 7 || snap.BytesSent != 100 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}

	// Every counter keeps its name through Restore, Snapshot, Add and
	// the snapshot's encoding.
	want := Counters{
		Initiated: 1, Responded: 2, Timeouts: 3, Rejected: 4, BadFrames: 5, Retries: 6,
		Suspected: 7, Evicted: 8, Resumed: 9, BytesSent: 10, BytesRecv: 11,
	}
	var live CounterSet
	live.Restore(want)
	byName := Counters{
		Initiated: live.Initiated.Load(), Responded: live.Responded.Load(), Timeouts: live.Timeouts.Load(),
		Rejected: live.Rejected.Load(), BadFrames: live.BadFrames.Load(), Retries: live.Retries.Load(),
		Suspected: live.Suspected.Load(), Evicted: live.Evicted.Load(), Resumed: live.Resumed.Load(),
		BytesSent: live.BytesSent.Load(), BytesRecv: live.BytesRecv.Load(),
	}
	if byName != want || live.Snapshot() != want {
		t.Fatalf("restored %+v, snapshot %+v, want %+v", byName, live.Snapshot(), want)
	}
	twice := want
	twice.Add(want)
	if twice.Initiated != 2 || twice.Resumed != 18 || twice.BytesRecv != 22 {
		t.Fatalf("added %+v", twice)
	}
	enc := want.AppendTo(nil)
	d := Dec{B: enc}
	if got := d.Counters(); got != want || d.Done() != nil || len(enc) != want.Size() || enc[8*5-1] != 5 {
		t.Fatalf("snapshot encodes to %x and decodes to %+v", enc, got)
	}
}

func TestTargetedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{9, 8, 7}
	if err := WriteFrameTarget(&buf, KindSumReq, 42, 7, payload); err != nil {
		t.Fatal(err)
	}
	// Untargeted frames travel in the same layout on the same stream.
	if err := WriteFrameTarget(&buf, KindSumResp, 42, -1, payload); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindSumReq || f.Epoch != 42 || f.Target != 7 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("targeted frame mismatch: %+v", f)
	}
	f2, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Target != -1 {
		t.Fatalf("untargeted frame decoded with target %d, want -1", f2.Target)
	}
	// Target 0 is a real participant, not "no target".
	buf.Reset()
	if err := WriteFrameTarget(&buf, KindDecReq, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	f3, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Target != 0 {
		t.Fatalf("target 0 decoded as %d", f3.Target)
	}
}

func TestFrameWireSize(t *testing.T) {
	for _, target := range []int{-1, 3} {
		var buf bytes.Buffer
		if err := WriteFrameTarget(&buf, KindHello, 1, target, make([]byte, 5)); err != nil {
			t.Fatal(err)
		}
		if got := FrameWireSize(5); got != buf.Len() {
			t.Fatalf("target %d: wire size %d, want %d", target, got, buf.Len())
		}
	}
}

func TestTargetedFrameAtMaxLenAccepted(t *testing.T) {
	// A frame whose header and payload take exactly MaxFrameLen bytes is
	// read; one byte more is refused.
	lim := testLimits()
	var buf bytes.Buffer
	payload := make([]byte, lim.MaxFrameLen-headerBytes)
	if err := WriteFrameTarget(&buf, KindSumReq, 1, 2, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, lim.MaxFrameLen); err != nil {
		t.Fatalf("targeted frame at the limit refused: %v", err)
	}
	buf.Reset()
	if err := WriteFrameTarget(&buf, KindSumReq, 1, 2, append(payload, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, lim.MaxFrameLen); !errors.Is(err, ErrMalformed) {
		t.Fatalf("frame one byte past the limit: %v, want ErrMalformed", err)
	}
}

func TestHelloDigestRoundTrip(t *testing.T) {
	lim := testLimits()
	h := Hello{Index: 7, Addr: "127.0.0.1:9000", N: 12, Digest: 0xDEADBEEFCAFEF00D}
	got, err := UnmarshalHello(MarshalHello(h), lim)
	if err != nil || got != h {
		t.Fatalf("hello digest round trip: %+v, %v", got, err)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	r := Reject{Reason: "config digest 0123456789abcdef, want fedcba9876543210"}
	got, err := UnmarshalReject(MarshalReject(r))
	if err != nil || got != r {
		t.Fatalf("reject round trip: %+v, %v", got, err)
	}
	// Hostile reason lengths are truncated on marshal, refused on parse.
	long := Reject{Reason: strings.Repeat("x", 10_000)}
	got, err = UnmarshalReject(MarshalReject(long))
	if err != nil || len(got.Reason) > 256 {
		t.Fatalf("oversize reason survived: %d bytes, %v", len(got.Reason), err)
	}
	if _, err := UnmarshalReject([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("hostile reject length accepted")
	}
}

// TestCountersAdd fills every field of two Counters with distinct
// values and checks Add sums each one, so a counter added to the struct
// but not to Add fails here instead of vanishing from every aggregate.
func TestCountersAdd(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(1000 * (i + 1)))
	}
	sum := a
	sum.Add(b)
	vs := reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		if got, want := vs.Field(i).Int(), int64(1001*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", vs.Type().Field(i).Name, got, want)
		}
	}
}
