package mux_test

import (
	"testing"

	"chiaroscuro/internal/homenc"
)

// TestDecryptionMaterializesNothing: a participant's decryption reads
// the elected vector and its gathered parts as images — applying its
// key-share, sending and taking parts, combining the release — and turns
// none of them into big.Int values. Nor does any other phase: Start
// encrypts into images, the sum phase's merges read and write images,
// Propose corrects the noise state from its image into another, and the
// dissemination only holds vectors. One iteration on virtual nodes
// therefore materializes no vector at all.
func TestDecryptionMaterializesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	const n = 12
	ts := newSetup(t, n, 0)
	before := homenc.ReadWireStats().Materialized
	results := launchVirtual(t, ts, n)
	if got := homenc.ReadWireStats().Materialized - before; got != 0 {
		t.Fatalf("a %d-participant iteration materialized %d vectors, want 0", n, got)
	}
	for i, r := range results {
		if len(r.Centroids) == 0 {
			t.Fatalf("participant %d released no centroids", i)
		}
	}
}
