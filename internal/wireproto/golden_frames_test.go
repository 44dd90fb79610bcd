package wireproto

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"maps"
	"math/big"
	"os"
	"slices"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_frames.json from the current encoder")

func bigOf(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		panic(s)
	}
	return v
}

func ctsOf(vals ...string) []homenc.Ciphertext {
	out := make([]homenc.Ciphertext, len(vals))
	for i, s := range vals {
		out[i] = homenc.Ciphertext{V: bigOf(s)}
	}
	return out
}

func intsOf(vals ...string) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, s := range vals {
		out[i] = bigOf(s)
	}
	return out
}

func vectorOf(vals []*big.Int) *homenc.Vector {
	if vals == nil {
		return nil
	}
	cts := make([]homenc.Ciphertext, len(vals))
	for i, v := range vals {
		cts[i].V = v
	}
	return homenc.NewVector(cts)
}

// dissOf is the sending form of a dissemination leg written out
// eagerly.
func dissOf(m eagerDiss) *DissMsg {
	return &DissMsg{Hdr: m.Hdr, ID: m.ID, CTs: vectorOf(m.CTs), Omega: m.Omega}
}

// decOf is the sending form of a decryption leg written out eagerly: an
// entry with no partial decryptions names its index alone.
func decOf(m eagerDec) *DecMsg {
	out := &DecMsg{Hdr: m.Hdr, ID: m.ID, Fresh: vectorOf(m.Fresh), Released: m.Released, Release: m.Release}
	for _, idx := range slices.Sorted(maps.Keys(m.Parts)) {
		e := eesum.Part{Idx: idx, V: vectorOf(m.Parts[idx])}
		out.Shares = append(out.Shares, e)
		if len(m.Parts[idx]) > 0 {
			out.Parts = append(out.Parts, e)
		}
	}
	return out
}

// goldenLeg is one exchange leg of the golden set. A dissemination or
// decryption leg also carries its eager encoding, which the frame's
// payload must match.
type goldenLeg struct {
	name  string
	kind  byte
	msg   Message
	eager []byte
}

// goldenLegs is the fixed message set behind testdata/golden_frames.json:
// every exchange leg of the three phases, with zero, negative and
// multi-word integers in every vector position.
func goldenLegs() []goldenLeg {
	hdr := ExchangeHdr{Iter: 3, Cycle: 7, Seq: 2, From: 4, To: 9}
	abort := hdr
	abort.Flags = FlagAbort
	sum := &SumOut{
		Hdr:      hdr,
		Means:    SideOf(eesum.SumState{CTs: ctsOf("10", "-20", "0", "0x400000000000000005", "-0x10000000000000000"), Omega: big.NewInt(3), Epoch: 5}),
		CtrSigma: 12.5, CtrOmega: 0.25,
	}
	dissReq := eagerDiss{Hdr: hdr, ID: 0xDEADBEEF01}
	dissResp := eagerDiss{Hdr: hdr, ID: 0xBEEF02, CTs: intsOf("99", "-100", "0xFFFFFFFFFFFFFFFFFFFF", "0"), Omega: big.NewInt(8)}
	dissFin := dissResp
	dissFin.ID = 0xBEEF01
	dissAbort := eagerDiss{Hdr: abort, ID: 0xBEEF02}
	// The request names its sender's share indices alone; the response
	// names the responder's and carries the parts of two of them, and a
	// key-share; the fin carries one part and a key-share.
	decReq := eagerDec{Hdr: hdr, ID: 0xBEEF01, Parts: map[int][]*big.Int{3: {}, 1: {}}}
	decResp := eagerDec{
		Hdr: hdr, ID: 0xBEEF01,
		Parts: map[int][]*big.Int{
			2: {},
			4: intsOf("11", "12", "-13", "0x1000000000000000000000000"),
			6: intsOf("21", "22", "23", "24"),
		},
		Fresh: intsOf("31", "32", "-33", "0"),
	}
	decFin := eagerDec{
		Hdr: hdr, ID: 0xBEEF01,
		Parts: map[int][]*big.Int{5: intsOf("51", "-52", "0", "54")},
		Fresh: intsOf("41", "42", "43", "0x7FFFFFFFFFFFFFFFFF"),
	}
	decAbort := eagerDec{Hdr: abort, ID: 0xBEEF01}
	// A released side's request is only marked; its response carries
	// the release and nothing else.
	decReqReleased := eagerDec{Hdr: hdr, ID: 0xBEEF01, Released: true}
	decRespReleased := eagerDec{Hdr: hdr, ID: 0xBEEF01, Released: true, Release: []float64{12.5, -0.75, 0, 1e-300, -4e21}}
	return []goldenLeg{
		{"sum-req", KindSumReq, sum, nil},
		{"sum-resp", KindSumResp, sum, nil},
		{"sum-fin", KindSumFin, Fin{Hdr: hdr}, nil},
		{"sum-fin-abort", KindSumFin, Fin{Hdr: abort}, nil},
		{"diss-req", KindDissReq, dissOf(dissReq), eagerMarshalDiss(dissReq)},
		{"diss-resp", KindDissResp, dissOf(dissResp), eagerMarshalDiss(dissResp)},
		{"diss-fin", KindDissFin, dissOf(dissFin), eagerMarshalDiss(dissFin)},
		{"diss-fin-abort", KindDissFin, dissOf(dissAbort), eagerMarshalDiss(dissAbort)},
		{"dec-req", KindDecReq, decOf(decReq), eagerMarshalDec(decReq)},
		{"dec-resp", KindDecResp, decOf(decResp), eagerMarshalDec(decResp)},
		{"dec-fin", KindDecFin, decOf(decFin), eagerMarshalDec(decFin)},
		{"dec-fin-abort", KindDecFin, decOf(decAbort), eagerMarshalDec(decAbort)},
		{"dec-req-released", KindDecReq, decOf(decReqReleased), eagerMarshalDec(decReqReleased)},
		{"dec-resp-released", KindDecResp, decOf(decRespReleased), eagerMarshalDec(decRespReleased)},
	}
}

// TestGoldenFrames pins the wire format byte for byte against the
// committed testdata, in both of a frame's uses: untargeted (the target
// field 0xFFFFFFFF) and routed to a population index. The decryption
// and dissemination legs are also checked against the independent eager
// encoders of scan_fuzz_test.go, so the committed bytes are not vouched for only by
// the encoder that wrote them. Every leg is written twice — the second
// write is served from the cached images.
func TestGoldenFrames(t *testing.T) {
	got := map[string]string{}
	for _, leg := range goldenLegs() {
		for _, v := range []struct {
			tag    string
			target int
		}{{"untargeted", -1}, {"targeted", 9}} {
			var first, second bytes.Buffer
			for _, buf := range []*bytes.Buffer{&first, &second} {
				n, err := WriteMessage(buf, leg.kind, 0xC0FFEE, v.target, leg.msg)
				if err != nil {
					t.Fatal(err)
				}
				if n != buf.Len() || n != FrameWireSize(leg.msg.Size()) {
					t.Fatalf("%s/%s: wrote %d bytes, reported %d, FrameWireSize %d", leg.name, v.tag, buf.Len(), n, FrameWireSize(leg.msg.Size()))
				}
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s/%s: cached-image write differs from the first", leg.name, v.tag)
			}
			if leg.eager != nil && !bytes.Equal(first.Bytes()[4+headerBytes:], leg.eager) {
				t.Fatalf("%s/%s: payload\n%x\nthe eager encoder writes\n%x", leg.name, v.tag, first.Bytes()[4+headerBytes:], leg.eager)
			}
			got[leg.name+"/"+v.tag] = hex.EncodeToString(first.Bytes())
		}
	}
	const path = "testdata/golden_frames.json"
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d frames, golden file has %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s:\n got %s\nwant %s", name, got[name], w)
		}
	}
}
