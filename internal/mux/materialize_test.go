package mux_test

import (
	"testing"

	"chiaroscuro/internal/homenc"
)

// TestDecryptionMaterializesNothing: a participant's decryption reads
// the elected vector and its gathered parts as images — applying its
// key-share, sending and taking parts, combining the release — and turns
// none of them into big.Int values. One iteration on virtual nodes
// therefore materializes one vector a participant: the noise state its
// Propose corrects, at the end of the sum phase; the sum phase's merges
// and the dissemination materialize none.
func TestDecryptionMaterializesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	const n = 12
	ts := newSetup(t, n, 0)
	before := homenc.ReadWireStats().Materialized
	results := launchVirtual(t, ts, n)
	if got := homenc.ReadWireStats().Materialized - before; got != n {
		t.Fatalf("a %d-participant iteration materialized %d vectors, want %d (one noise correction a participant)", n, got, n)
	}
	for i, r := range results {
		if len(r.Centroids) == 0 {
			t.Fatalf("participant %d released no centroids", i)
		}
	}
}
