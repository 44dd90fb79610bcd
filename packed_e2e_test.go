package chiaroscuro

import "testing"

// TestRunNetworkedPackedMatchesRun pins the packed ciphertext layout
// across the TCP runtime: with an explicit PackSlots >= 2 every frame
// carries ⌈dim/slots⌉ ciphertexts, and the networked run must still
// release bit-identical centroids to the in-memory simulator at the
// same seed. (The auto layout also packs on this s=4 scheme; pinning
// the count keeps the test meaningful if auto-sizing defaults change.)
func TestRunNetworkedPackedMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	data, _ := GenerateCER(8, 14)
	seeds := SeedCentroids("cer", 2, 15)
	scheme, err := NewTestScheme(128, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	diss, dec := FixedPhaseCycles(data.Len())
	opts := Options{
		Scheme: scheme, K: 2, InitCentroids: seeds,
		DMin: CERMin, DMax: CERMax,
		Epsilon: 1e4, MaxIterations: 1, Exchanges: 10,
		DissCycles: diss, DecryptCycles: dec,
		// NoiseShares below the population forces a nonzero surplus
		// correction, so the (unpacked, cleartext) correction vector
		// must actually cross the wire and win the min-identifier
		// dissemination — with the default it is all zeros and a broken
		// diss phase would be invisible.
		NoiseShares: 6,
		FracBits:    24, PackSlots: 2, Seed: 44, Workers: 2,
	}
	want, err := runMode(data, Simulated, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runMode(data, Networked, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Centroids) != len(want.Centroids) || len(want.Centroids) == 0 {
		t.Fatalf("centroid count %d, want %d (non-zero)", len(got.Centroids), len(want.Centroids))
	}
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if got.Centroids[c][j] != want.Centroids[c][j] {
				t.Fatalf("centroid %d[%d]: networked %v, sim %v", c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
	}
	// The packed run must also pack the unpacked baseline's bytes down:
	// same options with PackSlots = 1 moves strictly more bytes.
	unpacked := opts
	unpacked.PackSlots = 1
	ref, err := runMode(data, Simulated, unpacked)
	if err != nil {
		t.Fatal(err)
	}
	if want.AvgBytes >= ref.AvgBytes {
		t.Fatalf("packed run moved %v bytes/node, unpacked %v — packing must shrink the wire", want.AvgBytes, ref.AvgBytes)
	}
	for c := range ref.Centroids {
		for j := range ref.Centroids[c] {
			if ref.Centroids[c][j] != want.Centroids[c][j] {
				t.Fatalf("centroid %d[%d]: packed %v, unpacked %v — packing must be exact", c, j, want.Centroids[c][j], ref.Centroids[c][j])
			}
		}
	}
}
