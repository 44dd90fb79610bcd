package node

import (
	"errors"
	"testing"
	"time"

	"chiaroscuro/internal/core"
)

// TestConfigDigestSensitivity pins that the digest separates every
// parameter class it covers, and that defaulted and explicit spellings
// of the same deployment agree (digesting happens after Normalize).
func TestConfigDigestSensitivity(t *testing.T) {
	ts := newSetup(t, 4, 0)
	pack, err := core.PackingFor(ts.proto.Normalize(ts.n), ts.n, ts.data.Dim(), ts.scheme)
	if err != nil {
		t.Fatal(err)
	}
	base := ConfigDigest(ts.proto.Normalize(ts.n), ts.n, ts.data.Dim(), pack)
	if base == 0 {
		t.Fatal("zero digest (0 is the wire sentinel for a pre-digest peer)")
	}
	mutations := map[string]func() uint64{
		"population": func() uint64 { return ConfigDigest(ts.proto.Normalize(ts.n+1), ts.n+1, ts.data.Dim(), pack) },
		"k": func() uint64 {
			p := ts.proto
			p.K = 3
			return ConfigDigest(p.Normalize(ts.n), ts.n, ts.data.Dim(), pack)
		},
		"frac-bits": func() uint64 {
			p := ts.proto
			p.FracBits = 16
			return ConfigDigest(p.Normalize(ts.n), ts.n, ts.data.Dim(), pack)
		},
		"exchanges": func() uint64 {
			p := ts.proto
			p.Exchanges = 11
			return ConfigDigest(p.Normalize(ts.n), ts.n, ts.data.Dim(), pack)
		},
		"threshold": func() uint64 {
			p := ts.proto
			p.Threshold = 0.5
			return ConfigDigest(p.Normalize(ts.n), ts.n, ts.data.Dim(), pack)
		},
		"series-dim": func() uint64 { return ConfigDigest(ts.proto.Normalize(ts.n), ts.n, ts.data.Dim()+1, pack) },
		"pack-slots": func() uint64 {
			p2 := pack
			p2.Slots++
			return ConfigDigest(ts.proto.Normalize(ts.n), ts.n, ts.data.Dim(), p2)
		},
	}
	for name, mutate := range mutations {
		if got := mutate(); got == base {
			t.Errorf("digest ignores %s", name)
		}
	}
	// Seed is covered by the epoch, not the digest: same deployment at a
	// different seed must keep its digest.
	p := ts.proto
	p.Seed++
	if got := ConfigDigest(p.Normalize(ts.n), ts.n, ts.data.Dim(), pack); got != base {
		t.Error("digest depends on the seed (epoch already covers it)")
	}
}

// TestJoinRejectsConfigMismatch is the handshake end-to-end: a node
// provisioned with different protocol parameters dials into a
// population and must be turned away with ErrConfigMismatch — before
// any protocol traffic, not as a mid-run divergence.
func TestJoinRejectsConfigMismatch(t *testing.T) {
	ts := newSetup(t, 2, 0)
	good, err := New(Config{
		Index: 0, N: ts.n, Series: ts.data.Row(0), Scheme: ts.scheme, Proto: ts.proto,
		ViewInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	bad := ts.proto
	bad.FracBits = 16 // disagrees on the fixed-point encoding
	nd, err := New(Config{
		Index: 1, N: ts.n, Series: ts.data.Row(1), Scheme: ts.scheme, Proto: bad,
		Bootstrap:   good.Addr(),
		JoinTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	err = nd.Join()
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("join error = %v, want ErrConfigMismatch", err)
	}
}
