package core

import (
	"math/big"
	"sync/atomic"
	"testing"

	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// workScheme counts the crypto work a run spends: encryptions, public
// additions, partial decryptions, combinations, and ciphertext pairs
// merged by the update rule (the merge count sums operand lengths).
type workScheme struct {
	homenc.Scheme
	encrypt, addPublic, partial, combine, merged atomic.Int64
}

func (s *workScheme) Encrypt(m *big.Int) homenc.Ciphertext {
	s.encrypt.Add(1)
	return s.Scheme.Encrypt(m)
}

func (s *workScheme) AddPublic(a homenc.Ciphertext, m *big.Int) homenc.Ciphertext {
	s.addPublic.Add(1)
	return s.Scheme.AddPublic(a, m)
}

func (s *workScheme) PartialDecrypt(index int, c homenc.Ciphertext) (homenc.PartialDecryption, error) {
	s.partial.Add(1)
	return s.Scheme.PartialDecrypt(index, c)
}

func (s *workScheme) Combine(c homenc.Ciphertext, parts []homenc.PartialDecryption) (*big.Int, error) {
	s.combine.Add(1)
	return s.Scheme.Combine(c, parts)
}

func (s *workScheme) MergeVec(dst *homenc.Vector, a homenc.Operand, shift uint, b homenc.Operand, workers int) {
	s.merged.Add(int64(a.Len()))
	s.Scheme.MergeVec(dst, a, shift, b, workers)
}

// TestSimulatorCryptoWork pins the crypto work of one simulated run on
// the 12-participant Damgård–Jurik setup of the networked runtime's
// share-count test: a full in-memory exchange computes each merge once
// for both sides, and a participant applies its key-share at most once,
// to the one elected vector — at most np × 25 partial decryptions. Any
// double merge or re-applied share moves the constants. A contribution
// packs to 25 ciphertexts, and each participant encrypts it once with
// its noise-shares folded in: 12 × 25 = 300 encryptions. The sum phase
// runs 10 cycles of 12 exchanges, one merge of 25 pairs each: 3,000
// pairs merged, and nothing else merges. Every participant perturbs its
// own sum before the election; the correction is public and added
// without encrypting it, 12 × 25 = 300 AddPublic calls. Only the
// participants whose share set fills by union combine it — 6 of the 12,
// 25 ciphertexts each; the others take a released peer's release.
func TestSimulatorCryptoWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	const (
		wantEncrypt   = 300
		wantAddPublic = 300
		wantPartial   = 250
		wantCombine   = 150
		wantMerged    = 3000
	)
	const np = 12
	data, _ := datasets.GenerateCER(np, randx.New(7, 0))
	dj, err := damgardjurik.NewTestScheme(128, 4, np, np/3)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]timeseries.Series, 2)
	for c := range seeds {
		s := make(timeseries.Series, data.Dim())
		for j := range s {
			s[j] = 10 + 30*float64(c)
		}
		seeds[c] = s
	}
	sch := &workScheme{Scheme: dj}
	nw, err := NewNetwork(data, sch, Config{
		K:             2,
		InitCentroids: seeds,
		DMin:          datasets.CERMin,
		DMax:          datasets.CERMax,
		Epsilon:       1e4,
		MaxIterations: 1,
		Exchanges:     10,
		DissCycles:    8,
		DecryptCycles: 10,
		FracBits:      24,
		Seed:          21,
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Encrypt calls", sch.encrypt.Load(), wantEncrypt},
		{"AddPublic calls", sch.addPublic.Load(), wantAddPublic},
		{"PartialDecrypt calls", sch.partial.Load(), wantPartial},
		{"Combine calls", sch.combine.Load(), wantCombine},
		{"ciphertext pairs merged", sch.merged.Load(), wantMerged},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
