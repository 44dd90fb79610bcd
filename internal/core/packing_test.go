package core

import (
	"math/big"
	"strings"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
)

// runPacked executes a full protocol run at the given PackSlots, with
// everything else (data, scheme, seed) identical.
func runPacked(t *testing.T, sch homenc.Scheme, cfg Config, seed uint64, slots int) *Result {
	t.Helper()
	data, centers := blobs(sch.NumShares(), 4, cfg.K, seed)
	cfg.InitCentroids = offSeeds(centers, 2)
	cfg.PackSlots = slots
	nw, err := NewNetwork(data, sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertBitIdentical compares two runs' released centroids for exact
// (bit-level) float equality, and their message counts.
func assertBitIdentical(t *testing.T, packed, unpacked *Result) {
	t.Helper()
	if len(packed.Centroids) != len(unpacked.Centroids) || len(packed.Centroids) == 0 {
		t.Fatalf("centroid count %d vs %d (want equal, non-zero)", len(packed.Centroids), len(unpacked.Centroids))
	}
	for c := range packed.Centroids {
		for j := range packed.Centroids[c] {
			if packed.Centroids[c][j] != unpacked.Centroids[c][j] {
				t.Fatalf("centroid %d[%d]: packed %v, unpacked %v — slot arithmetic must be exact",
					c, j, packed.Centroids[c][j], unpacked.Centroids[c][j])
			}
		}
	}
	if packed.AvgMessages != unpacked.AvgMessages {
		t.Fatalf("message counts diverged: %v vs %v (packing must not change the schedule)",
			packed.AvgMessages, unpacked.AvgMessages)
	}
}

func TestPackedMatchesUnpackedPlain(t *testing.T) {
	// A bounded plain scheme large enough for 4 guarded slots.
	const np, k = 24, 2
	sch, err := plain.New(new(big.Int).Lsh(big.NewInt(1), 2048), 256, np, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		K: k, DMin: 0, DMax: 60,
		Epsilon: 1e6, MaxIterations: 2, Exchanges: 25, Seed: 91,
	}
	unpacked := runPacked(t, sch, cfg, 61, 1)
	packed := runPacked(t, sch, cfg, 61, 4)
	assertBitIdentical(t, packed, unpacked)
	// dim = k·(n+1) = 10 values → 3 ciphertexts at 4 slots; the mirror
	// accounting counts ciphertexts+1 per message, so bytes shrink by
	// exactly (10+1)/(3+1).
	if ratio := unpacked.AvgBytes / packed.AvgBytes; ratio != 11.0/4.0 {
		t.Errorf("byte ratio = %v, want 11/4", ratio)
	}
}

func TestPackedMatchesUnpackedChurnMidFailure(t *testing.T) {
	// The mid-exchange churn model corrupts in-flight state; packed and
	// unpacked runs must corrupt identically (same schedule, same
	// half-applied merges) and still release bit-identical centroids.
	const np, k = 24, 2
	sch, err := plain.New(new(big.Int).Lsh(big.NewInt(1), 2048), 256, np, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		K: k, DMin: 0, DMax: 60,
		Epsilon: 1e6, MaxIterations: 2, Exchanges: 40, Seed: 92,
		Churn: 0.25, MidFailure: true,
	}
	unpacked := runPacked(t, sch, cfg, 62, 1)
	packed := runPacked(t, sch, cfg, 62, 4)
	assertBitIdentical(t, packed, unpacked)
}

func TestPackedMatchesUnpackedRealCryptoS4(t *testing.T) {
	// The acceptance case: PackSlots = 4 on a degree s=4 Damgård–Jurik
	// scheme (1024-bit plaintext space on a 256-bit key) must release
	// bit-identical centroids to the unpacked run at the same seed,
	// with real noise applied (moderate ε), through the real threshold
	// decryption.
	if testing.Short() {
		t.Skip("real-crypto packing e2e")
	}
	const np, k = 20, 2
	sch, err := damgardjurik.NewTestScheme(256, 4, np, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		K: k, DMin: 0, DMax: 60,
		Epsilon: 100, MaxIterations: 1, Exchanges: 12,
		FracBits: 24, Seed: 93,
	}
	unpacked := runPacked(t, sch, cfg, 63, 1)
	packed := runPacked(t, sch, cfg, 63, 4)
	assertBitIdentical(t, packed, unpacked)
	// 10 values → 3 ciphertexts: wire bytes divide by (10+1)/(3+1).
	if ratio := unpacked.AvgBytes / packed.AvgBytes; ratio != 11.0/4.0 {
		t.Errorf("byte ratio = %v, want 11/4", ratio)
	}
}

func TestPackingForAutoAndValidation(t *testing.T) {
	const np, seriesDim = 10, 4
	cfg := Config{
		K: 2, DMin: 0, DMax: 60,
		Epsilon: 1e6, MaxIterations: 1, Exchanges: 12, FracBits: 24,
	}.Normalize(np)

	// Auto on an s=4 scheme finds room for several slots.
	s4, err := damgardjurik.NewTestScheme(256, 4, np, 4)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := PackingFor(cfg, np, seriesDim, s4)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Slots < 4 {
		t.Errorf("auto-sizing on a 1024-bit plaintext space packed %d slots, want >= 4", pc.Slots)
	}
	// The guard band covers the full exchange-budget epoch growth under
	// the corrected headroom math.
	slotSpace := new(big.Int).Lsh(big.NewInt(1), pc.SlotBits)
	bound := SumAbsBound(cfg, np, seriesDim, homenc.NewCodec(cfg.FracBits))
	if have := homenc.HeadroomEpochs(slotSpace, bound); have < HeadroomNeeded(cfg.Exchanges) {
		t.Errorf("slot guard band holds %d epochs, need %d", have, HeadroomNeeded(cfg.Exchanges))
	}

	// Auto on an s=1 scheme of the same key: no room, packing off.
	s1, err := damgardjurik.NewTestScheme(256, 1, np, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pc, err := PackingFor(cfg, np, seriesDim, s1); err != nil || pc.Slots != 1 {
		t.Errorf("auto on s=1: slots %d, err %v — want packing off", pc.Slots, err)
	}

	// An explicit slot count the space cannot hold fails construction.
	over := cfg
	over.PackSlots = 64
	if _, err := PackingFor(over, np, seriesDim, s4); err == nil || !strings.Contains(err.Error(), "slots") {
		t.Errorf("oversized PackSlots must fail with a slot-layout error, got %v", err)
	}
	data, centers := blobs(np, seriesDim, 2, 59)
	over.InitCentroids = offSeeds(centers, 1)
	if _, err := NewNetwork(data, s4, over); err == nil {
		t.Error("NewNetwork must reject an oversized PackSlots")
	}
}
