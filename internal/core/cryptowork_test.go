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

// workScheme counts the crypto work a run spends: encryptions, partial
// decryptions, combinations, and ciphertext pairs merged by the update
// rule (the merge count sums operand lengths).
type workScheme struct {
	homenc.Scheme
	encrypt, partial, combine, merged atomic.Int64
}

func (s *workScheme) Encrypt(m *big.Int) homenc.Ciphertext {
	s.encrypt.Add(1)
	return s.Scheme.Encrypt(m)
}

func (s *workScheme) PartialDecrypt(index int, c homenc.Ciphertext) (homenc.PartialDecryption, error) {
	s.partial.Add(1)
	return s.Scheme.PartialDecrypt(index, c)
}

func (s *workScheme) Combine(c homenc.Ciphertext, parts []homenc.PartialDecryption) (*big.Int, error) {
	s.combine.Add(1)
	return s.Scheme.Combine(c, parts)
}

func (s *workScheme) MergeVec(a homenc.Operand, shift uint, b homenc.Operand, workers int) *homenc.Vector {
	s.merged.Add(int64(a.Len()))
	return s.Scheme.MergeVec(a, shift, b, workers)
}

// TestSimulatorCryptoWork pins the crypto work of one simulated run on
// the 12-participant Damgård–Jurik setup the networked runtime's
// adoption-dedupe test uses: a full in-memory exchange computes each
// merge once for both sides, and a key-share applied for one side of an
// adopting decryption exchange is reused for the other. The constants
// were measured on the population drivers the participant machine
// replaced; any double merge or re-applied share moves them.
func TestSimulatorCryptoWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	const (
		wantEncrypt = 900
		wantPartial = 600
		wantCombine = 300
		wantMerged  = 6300
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
		{"PartialDecrypt calls", sch.partial.Load(), wantPartial},
		{"Combine calls", sch.combine.Load(), wantCombine},
		{"ciphertext pairs merged", sch.merged.Load(), wantMerged},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
