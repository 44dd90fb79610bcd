package eesum

import (
	"bytes"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/randx"
)

// sparePair returns two participants of a plain deployment whose
// plaintext space is bounded, so repeated merges keep their values — and
// their images — the same width, each holding the state merged
// elsewhere that a journal or a frame would leave it: an image.
func sparePair(t *testing.T, dim int) (p, q *Participant) {
	t.Helper()
	space := new(big.Int).Lsh(big.NewInt(1), 127) // 2^127 − 1: odd, so doubling keeps the values spread
	return plainPair(t, dim, space.Sub(space, big.NewInt(1)))
}

// plainPair is sparePair in a plain deployment of plaintext space space
// (nil: unbounded, so every merge widens the values).
func plainPair(t *testing.T, dim int, space *big.Int) (p, q *Participant) {
	t.Helper()
	sch, err := plain.New(space, 64, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Scheme: sch, Pack: homenc.PackedCodec{Codec: homenc.NewCodec(0), Slots: 1}, Workers: 1}
	a, b := mergeOperands(dim, fixedPoint)
	mk := func(index int, st SumState) *Participant {
		x := NewParticipant(env, index, nil, NoiseConfig{})
		x.Means = SumSide{CTs: imageOf(t, st.CTs), Omega: st.Omega, Epoch: st.Epoch}
		x.Noise = SumSide{CTs: imageOf(t, st.CTs), Omega: st.Omega, Epoch: st.Epoch}
		x.CtrS = 1
		return x
	}
	return mk(0, a), mk(1, b)
}

// startedPair returns two participants of the bounded plain deployment
// of sparePair, each holding the states its Start encrypted.
func startedPair(t *testing.T, dim int) (p, q *Participant) {
	t.Helper()
	p, q = sparePair(t, dim)
	noise := NoiseConfig{Lambdas: slices.Repeat([]float64{1}, dim), NShares: 2}
	rng := randx.New(53, 1)
	for i, x := range []*Participant{p, q} {
		*x = *NewParticipant(x.env, i, randx.New(53, uint64(2+i)), noise)
		contribution := make([]*big.Int, dim)
		for j := range contribution {
			contribution[j] = fixedPoint(rng)
		}
		x.Start(contribution)
	}
	return p, q
}

// TestCommitSumReusesSpareImages: past its first few commits, a sum
// commit writes both new states into the participant's spare images, so
// it allocates neither image — only the kernel's scratch and the new
// weights. The in-memory exchange's responder copies the result into its
// own spares, and allocates no image either.
func TestCommitSumReusesSpareImages(t *testing.T) {
	const dim = 50
	if raceEnabled {
		t.Skip("math/big's pools drop entries under the race detector")
	}
	p, q := sparePair(t, dim)
	for i := 0; i < 200; i++ { // the values fill the plaintext space, the spares their steady size
		p.ExchangeSum(q, true)
	}
	img := p.Means.CTs.WireSize()
	peer := q.sumPeer()
	const slack = 800 // both merges' scratch words and weights (≈ 490 B), below one image (≈ 1 KB)
	if got := bytesPerRun(100, func() { p.CommitSum(peer, true) }); got > float64(slack) {
		t.Errorf("a steady-state sum commit allocated %.0f bytes, want at most %d (one %d-byte image would exceed it)", got, slack, img)
	}
	if got := bytesPerRun(100, func() { p.ExchangeSum(q, true) }); got > float64(slack) {
		t.Errorf("a steady-state in-memory exchange allocated %.0f bytes, want at most %d (one %d-byte image would exceed it)", got, slack, img)
	}

	// With no plaintext modulus the values widen by a bit a merge, as a
	// plain deployment's sums do: a spare that outgrows its buffer
	// regrows it by doubling, so after its first few commits the
	// participant commits until its images have grown by three quarters
	// without allocating one (a quarter's headroom would regrow within
	// the first quarter).
	p, q = plainPair(t, dim, nil)
	peer = q.sumPeer()
	for i := 0; i < 4; i++ {
		p.CommitSum(peer, true)
	}
	start := p.Means.CTs.WireSize()
	for commits := 0; p.Means.CTs.WireSize() < start*7/4; commits++ {
		if got := bytesPerRun(1, func() { p.CommitSum(peer, true) }); got >= float64(start) {
			t.Fatalf("commit %d past the first four allocated %.0f bytes, an image: the spares regrew with the %d-byte image at %d bytes",
				commits, got, p.Means.CTs.WireSize(), start)
		}
	}

	// Sized from the epoch the sum ends by (Env.SumEpochs), each image
	// regrows at most once a sum: the first commit allocates the two new
	// spares, the second replaces the buffers of the two states the
	// participant started with, and no later commit allocates an image,
	// however much the values widen before that epoch.
	p, q = plainPair(t, dim, nil)
	p.env.SumEpochs = 64
	peer = q.sumPeer()
	start = p.Means.CTs.WireSize()
	regrew := 0
	for commit := 1; p.Means.Epoch < p.env.SumEpochs; commit++ {
		if got := allocatedBy(func() { p.CommitSum(peer, true) }); got >= uint64(start) {
			regrew++
			if commit > 2 {
				t.Errorf("commit %d, to epoch %d, allocated %d bytes: an image regrew", commit, p.Means.Epoch, got)
			}
		}
	}
	if regrew != 2 {
		t.Errorf("%d commits allocated images, want 2: one for the new spares, one for the states the sum started with", regrew)
	}
	if end := p.Means.CTs.WireSize(); end < start+5*dim {
		t.Fatalf("the image only grew from %d to %d bytes: the values did not widen", start, end)
	}

	// Start encrypts each state into an image with room for every
	// element at the scheme's ciphertext width, so Start's images serve
	// as spares too: the first commit allocates the two spares it writes
	// into, the second writes into the images Start left, and no commit
	// after the first allocates an image.
	p, q = startedPair(t, dim)
	peer = q.sumPeer()
	for commit := 1; commit <= 4; commit++ {
		img := p.Means.CTs.WireSize()
		got := allocatedBy(func() { p.CommitSum(peer, true) })
		if allocated := got >= uint64(img); allocated != (commit == 1) {
			t.Errorf("commit %d of a started participant allocated %d bytes (an image is %d): want the spares at the first commit only", commit, got, img)
		}
	}
}

// allocatedBy returns how many bytes one call of f allocates.
func allocatedBy(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestExchangeSumResponderOwnsItsImages is the aliasing guard of the
// spare images: after a full in-memory exchange the responder holds the
// initiator's result in images of its own, so the initiator's further
// commits — which rewrite its spares, the image it would otherwise have
// shared among them — leave the responder's bytes as they were, also
// while another goroutine reads them (the simulator runs disjoint pairs
// concurrently).
func TestExchangeSumResponderOwnsItsImages(t *testing.T) {
	const dim = 20
	p, q := sparePair(t, dim)
	_, r := sparePair(t, dim)
	p.ExchangeSum(q, true)
	if q.Means.CTs == p.Means.CTs || q.Noise.CTs == p.Noise.CTs {
		t.Fatal("the responder holds the initiator's images")
	}
	means, noise := q.Means.CTs.AppendTo(nil), q.Noise.CTs.AppendTo(nil)
	if !bytes.Equal(means, p.Means.CTs.AppendTo(nil)) {
		t.Fatal("the responder's means differ from the initiator's result")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if !bytes.Equal(q.Means.CTs.AppendTo(nil), means) || !bytes.Equal(q.Noise.CTs.AppendTo(nil), noise) {
				t.Error("the responder's images changed under the initiator's later commits")
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		p.ExchangeSum(r, i%2 == 0)
	}
	wg.Wait()
	if !bytes.Equal(q.Means.CTs.AppendTo(nil), means) || !bytes.Equal(q.Noise.CTs.AppendTo(nil), noise) {
		t.Fatal("the responder's images changed under the initiator's later commits")
	}
}
