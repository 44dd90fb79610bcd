package wireproto

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/big"
	"os"
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

func partsOf(idx int, vals ...string) *homenc.Partials {
	out := make([]homenc.PartialDecryption, len(vals))
	for i, s := range vals {
		out[i] = homenc.PartialDecryption{Index: idx, V: bigOf(s)}
	}
	return homenc.NewPartials(out)
}

// goldenLeg is one exchange leg of the golden set.
type goldenLeg struct {
	name string
	kind byte
	msg  Message
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
		Noise:    SideOf(eesum.SumState{CTs: ctsOf("7", "8", "9", "0x200000000", "-1"), Omega: big.NewInt(3), Epoch: 5}),
		CtrSigma: 12.5, CtrOmega: 0.25,
	}
	diss := &DissMsg{Hdr: hdr, ID: 0xDEADBEEF01, Vec: []float64{1.5, -2.25, 0, 1e-9}}
	decReq := DecMsg{
		Hdr: hdr, CTs: homenc.NewVector(ctsOf("99", "-100", "0xFFFFFFFFFFFFFFFFFFFF", "0")), Omega: big.NewInt(8),
		Parts: map[int]*homenc.Partials{
			3: partsOf(3, "11", "12", "-13", "0x1000000000000000000000000"),
			1: partsOf(1, "21", "22", "23", "24"),
		},
	}
	decResp := decReq
	decResp.Fresh = partsOf(5, "31", "32", "-33", "0")
	return []goldenLeg{
		{"sum-req", KindSumReq, sum},
		{"sum-resp", KindSumResp, sum},
		{"sum-fin", KindSumFin, Fin{Hdr: hdr}},
		{"sum-fin-abort", KindSumFin, Fin{Hdr: abort}},
		{"diss-req", KindDissReq, diss},
		{"diss-resp", KindDissResp, diss},
		{"diss-fin", KindDissFin, Fin{Hdr: hdr}},
		{"dec-req", KindDecReq, &decReq},
		{"dec-resp", KindDecResp, &decResp},
		{"dec-fin", KindDecFin, &DecMsg{Hdr: hdr, Fresh: partsOf(10, "41", "42", "43", "0x7FFFFFFFFFFFFFFFFF")}},
		{"dec-fin-abort", KindDecFin, &DecMsg{Hdr: abort}},
	}
}

// TestGoldenFrames pins the wire format byte for byte: the committed
// testdata was captured from the parent commit's eager encoder
// (MarshalSum/MarshalDiss/MarshalDec/MarshalFin through
// WriteFrameTarget, before wire images existed), so the image-based
// encoder is checked against the historical bytes, not against itself.
// Every leg is written twice — the second write is served from the
// cached images.
func TestGoldenFrames(t *testing.T) {
	got := map[string]string{}
	for _, leg := range goldenLegs() {
		for _, v := range []struct {
			tag    string
			target int
		}{{"v1", -1}, {"v2", 9}} {
			var first, second bytes.Buffer
			for _, buf := range []*bytes.Buffer{&first, &second} {
				n, err := WriteMessage(buf, leg.kind, 0xC0FFEE, v.target, leg.msg)
				if err != nil {
					t.Fatal(err)
				}
				if n != buf.Len() || n != FrameWireSize(v.target, leg.msg.Size()) {
					t.Fatalf("%s/%s: wrote %d bytes, reported %d, FrameWireSize %d", leg.name, v.tag, buf.Len(), n, FrameWireSize(v.target, leg.msg.Size()))
				}
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s/%s: cached-image write differs from the first", leg.name, v.tag)
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
