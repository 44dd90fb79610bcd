package chiaroscuro

// One benchmark per table/figure of the paper (run at CI scale; use
// cmd/benchfig -scale small|paper for the full-size reproductions), plus
// ablation benchmarks for the design decisions called out in DESIGN.md §4
// and end-to-end protocol benchmarks.
//
//	go test -bench=. -benchmem

import (
	"crypto/rand"
	"math"
	"math/big"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/dpkmeans"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/experiments"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/parallel"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/sim"
	"chiaroscuro/internal/wireproto"
)

// benchExperiment runs one registered experiment per b.N iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	gen := experiments.Registry[id]
	if gen == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tab, err := gen(experiments.Params{Scale: experiments.CI, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable2Parameters(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig2aCERInertia(b *testing.B)     { benchExperiment(b, "fig2a") }
func BenchmarkFig2bNUMEDInertia(b *testing.B)   { benchExperiment(b, "fig2b") }
func BenchmarkFig2cCERCentroids(b *testing.B)   { benchExperiment(b, "fig2c") }
func BenchmarkFig2dNUMEDCentroids(b *testing.B) { benchExperiment(b, "fig2d") }
func BenchmarkFig2eCERPrePost(b *testing.B)     { benchExperiment(b, "fig2e") }
func BenchmarkFig2fNUMEDPrePost(b *testing.B)   { benchExperiment(b, "fig2f") }
func BenchmarkFig3aChurnInertia(b *testing.B)   { benchExperiment(b, "fig3a") }
func BenchmarkFig3bChurnSumError(b *testing.B)  { benchExperiment(b, "fig3b") }
func BenchmarkFig4aSumLatency(b *testing.B)     { benchExperiment(b, "fig4a") }
func BenchmarkFig4bDecryptLatency(b *testing.B) { benchExperiment(b, "fig4b") }
func BenchmarkFig5aLocalCosts(b *testing.B)     { benchExperiment(b, "fig5a") }
func BenchmarkFig5bBandwidth(b *testing.B)      { benchExperiment(b, "fig5b") }
func BenchmarkFig6Points2D(b *testing.B)        { benchExperiment(b, "fig6") }

// --- Cryptographic micro-benchmarks at the paper's 1024-bit key size
// (Figure 5(a)'s per-operation costs).

func djScheme(b *testing.B, keyBits int) *damgardjurik.Scheme {
	b.Helper()
	sch, err := damgardjurik.NewTestScheme(keyBits, 1, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	return sch
}

func BenchmarkDJEncrypt1024(b *testing.B) {
	sch := djScheme(b, 1024)
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.Encrypt(m)
	}
}

// BenchmarkDJEncryptInline1024 draws every randomizer inline (a scheme
// with Random set bypasses the pool and its background filler), so the
// fixed-base comb's cost reaches ns/op and B/op.
func BenchmarkDJEncryptInline1024(b *testing.B) {
	sch := djScheme(b, 1024)
	sch.Random = rand.Reader
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.Encrypt(m)
	}
}

func BenchmarkDJAdd1024(b *testing.B) {
	sch := djScheme(b, 1024)
	c := sch.Encrypt(big.NewInt(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.Add(c, c)
	}
}

// BenchmarkDJAddPublic1024 adds a public plaintext to a ciphertext
// (the disseminated correction's path): the binomial (1+n)^m and one
// modular multiplication, no randomizer.
func BenchmarkDJAddPublic1024(b *testing.B) {
	sch := djScheme(b, 1024)
	c := sch.Encrypt(big.NewInt(42))
	m := big.NewInt(-123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.AddPublic(c, m)
	}
}

func BenchmarkDJPartialDecrypt1024(b *testing.B) {
	sch := djScheme(b, 1024)
	c := sch.Encrypt(big.NewInt(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.PartialDecrypt(1+i%3, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDJCombine1024(b *testing.B) {
	sch := djScheme(b, 1024)
	c := sch.Encrypt(big.NewInt(42))
	parts := make([]homenc.PartialDecryption, 3)
	for i := range parts {
		p, err := sch.PartialDecrypt(i+1, c)
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.Combine(c, parts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDJCombine1024Tau4of12 combines at sim-dj's key shape: 12
// shares, threshold 4, so Δ = 12! and every 2μ_i is 30 to 40 bits (at
// BenchmarkDJCombine1024's 5 shares they are at most 10).
func BenchmarkDJCombine1024Tau4of12(b *testing.B) {
	sch, err := damgardjurik.NewTestScheme(1024, 1, 12, 4)
	if err != nil {
		b.Fatal(err)
	}
	c := sch.Encrypt(big.NewInt(42))
	parts := make([]homenc.PartialDecryption, 4)
	for i := range parts {
		p, err := sch.PartialDecrypt(i+1, c)
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.Combine(c, parts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The sum-phase merge (eesum.MergeSum over Scheme.MergeVec) on the
// vector shapes of the benchmark's workloads, sides three epochs apart
// so one is rescaled. allocs/op is the number to watch: it is per vector,
// not per ciphertext.

func benchMergeSum(b *testing.B, sch homenc.Scheme, dim int) {
	b.Helper()
	side := func(omega int64, epoch int) eesum.SumState {
		cts := make([]homenc.Ciphertext, dim)
		for j := range cts {
			cts[j] = sch.Encrypt(big.NewInt(int64(j+1) << 40))
		}
		return eesum.SumState{CTs: cts, Omega: big.NewInt(omega), Epoch: epoch}
	}
	x, y := side(3, 4), side(5, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eesum.MergeSum(sch, x, y, 1)
	}
}

func BenchmarkMergeSumPlain50(b *testing.B) {
	sch, err := plain.New(nil, 64, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchMergeSum(b, sch, 50)
}

func BenchmarkMergeSumDJ1024x50(b *testing.B) { benchMergeSum(b, djScheme(b, 1024), 50) }

// BenchmarkMergeSumDJ1024Packed5 is the packed shape: the same 50
// measures in five s = 2 ciphertexts.
func BenchmarkMergeSumDJ1024Packed5(b *testing.B) {
	sch, err := damgardjurik.NewTestScheme(1024, 2, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchMergeSum(b, sch, 5)
}

// --- The sum leg as the wire runtime runs it: this side's state at rest
// (an image, as its previous commit left it), the peer's scanned off
// its SumOut frame and merged from there, and the new state appended to
// the next frame — the work one sum leg does between two frames. B/op is
// the number to watch: the result image and a few headers, nothing per
// ciphertext of either operand.

func benchMergeSumFromFrame(b *testing.B, sch homenc.Scheme, dim int) {
	b.Helper()
	side := func(omega int64, epoch int) eesum.SumState {
		cts := make([]homenc.Ciphertext, dim)
		for j := range cts {
			cts[j] = sch.Encrypt(big.NewInt(int64(j+1) << 40))
		}
		return eesum.SumState{CTs: cts, Omega: big.NewInt(omega), Epoch: epoch}
	}
	mine, theirs := side(3, 4), side(5, 7)
	lim := wireproto.NewLimits(sch.CiphertextBytes(), dim, 3, 5)
	rest, err := wireproto.ScanSum(wireproto.Marshal(&wireproto.SumOut{Means: wireproto.SideOf(mine)}), lim)
	if err != nil {
		b.Fatal(err)
	}
	sum := rest.Means.Copy()
	frame := wireproto.Marshal(&wireproto.SumOut{
		Hdr:   wireproto.ExchangeHdr{Iter: 1, Cycle: 3, Seq: 2, From: 1, To: 0},
		Means: wireproto.SideOf(theirs), CtrSigma: 1, CtrOmega: 1,
	})
	env := &eesum.Env{Scheme: sch, Pack: homenc.PackedCodec{Codec: homenc.NewCodec(0), Slots: 1}, Workers: 1}
	p := eesum.NewParticipant(env, 0, nil, eesum.NoiseConfig{})
	next := make([]byte, 0, 2*len(frame))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Means = sum
		v, err := wireproto.ScanSum(frame, lim)
		if err != nil {
			b.Fatal(err)
		}
		p.CommitSum(v.Peer(), true)
		out := wireproto.SumOut{Means: p.Means, CtrSigma: p.CtrS, CtrOmega: p.CtrW}
		next = out.AppendTo(next[:0])
	}
}

func BenchmarkMergeSumFromFramePlain50(b *testing.B) {
	sch, err := plain.New(nil, 64, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchMergeSumFromFrame(b, sch, 50)
}

// BenchmarkMergeSumFromFrameDJ1024Packed5 is the packed shape of
// net-dj-wan: the same 50 measures in five s = 2 ciphertexts.
func BenchmarkMergeSumFromFrameDJ1024Packed5(b *testing.B) {
	sch, err := damgardjurik.NewTestScheme(1024, 2, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchMergeSumFromFrame(b, sch, 5)
}

// --- Ablation: the deferred-division update rule of Algorithm 2 versus
// plaintext push-pull halving (what a non-encrypted deployment would
// do). Measures per-cycle cost at equal population.

func BenchmarkAblationUpdateRulePlaintextHalving(b *testing.B) {
	const n = 1024
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := gossip.NewSum(vals, 0)
	e, err := sim.New(sim.Config{N: n, Seed: 1}, &sim.UniformSampler{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycle(s.Exchange)
	}
}

func BenchmarkAblationUpdateRuleDeferredScaling(b *testing.B) {
	const n = 1024
	sch, err := plain.New(nil, 256, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	codec := homenc.NewCodec(20)
	initial := make([][]*big.Int, n)
	for i := range initial {
		initial[i] = []*big.Int{codec.Encode(float64(i))}
	}
	ps := sumParticipants(sch, codec, initial)
	// One worker: serial cycles, like the halving arm.
	e, err := sim.New(sim.Config{N: n, Seed: 1, Workers: 1}, &sim.UniformSampler{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycleOn(ps)
	}
}

// sumCycle drives participant machines' sum exchanges from the cycle
// engine.
type sumCycle []*eesum.Participant

func (ps sumCycle) Exchange(a, b sim.NodeID, full bool) { ps[a].ExchangeSum(ps[b], full) }
func (sumCycle) ConcurrentExchangeSafe() bool           { return true }

// sumParticipants starts one participant machine per contribution, with
// noise-shares far below the codec's resolution: each sum is then its
// contributions' own.
func sumParticipants(sch homenc.Scheme, codec homenc.Codec, contributions [][]*big.Int) sumCycle {
	env := &eesum.Env{Scheme: sch, Pack: homenc.PackedCodec{Codec: codec, Slots: 1}, Workers: parallel.Workers()}
	silent := eesum.NoiseConfig{Lambdas: slices.Repeat([]float64{1e-300}, len(contributions[0])), NShares: 1}
	ps := make(sumCycle, len(contributions))
	for i, vec := range contributions {
		ps[i] = eesum.NewParticipant(env, i, randx.New(0, uint64(i)), silent)
		ps[i].Start(vec)
	}
	return ps
}

// --- Ablation: SMA smoothing and the aberrant-mean filter (DESIGN.md §4
// items 4 and 5). The benchmark reports the best pre-perturbation
// inertia as a custom metric so the quality effect is visible next to
// the cost.

func ablationRun(b *testing.B, smooth bool, slack float64) {
	b.Helper()
	rng := randx.New(77, 77)
	data, _ := datasets.GenerateCER(12000, rng)
	seeds := datasets.SeedCentroids("cer", 10, rng)
	var bestSum float64
	for i := 0; i < b.N; i++ {
		res, err := dpkmeans.Run(data, dpkmeans.Config{
			InitCentroids: seeds,
			Budget:        dp.Greedy{Eps: math.Ln2},
			DMin:          datasets.CERMin, DMax: datasets.CERMax,
			Smooth:        smooth,
			RangeSlack:    slack,
			MaxIterations: 8,
			RNG:           randx.New(uint64(i)+1, 7),
		})
		if err != nil {
			b.Fatal(err)
		}
		_, best := res.BestIteration()
		bestSum += best.PreInertia
	}
	b.ReportMetric(bestSum/float64(b.N), "inertia")
}

func BenchmarkAblationSmoothingOn(b *testing.B)  { ablationRun(b, true, 1) }
func BenchmarkAblationSmoothingOff(b *testing.B) { ablationRun(b, false, 1) }

// A huge slack effectively disables the aberrant filter: noisy means
// survive and drag the next iteration's partition. Smoothing is off in
// both arms so the pair isolates the filter's effect (the smoothing
// ablation above isolates smoothing at the default slack).
func BenchmarkAblationAberrantFilterOn(b *testing.B)  { ablationRun(b, false, 1) }
func BenchmarkAblationAberrantFilterOff(b *testing.B) { ablationRun(b, false, 1e9) }

// --- End-to-end protocol benchmarks.

func BenchmarkEndToEndPlain64(b *testing.B) {
	data, _ := GenerateCER(64, 5)
	seeds := SeedCentroids("cer", 4, 6)
	for i := 0; i < b.N; i++ {
		scheme, err := NewSimulationScheme(256, 64, 8)
		if err != nil {
			b.Fatal(err)
		}
		res, err := runMode(data, Simulated, Options{
			Scheme: scheme, K: 4, InitCentroids: seeds,
			DMin: CERMin, DMax: CERMax,
			Epsilon: 1e4, MaxIterations: 2, Exchanges: 20,
			Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgMessages, "msgs/node")
	}
}

// endToEndRealCrypto12 runs the 12-participant real-crypto protocol at
// the given packing; the pair below tracks the packing speedup across
// PRs (both release bit-identical centroids, see internal/core tests).
func endToEndRealCrypto12(b *testing.B, packSlots int) {
	b.Helper()
	data, _ := GenerateCER(12, 7)
	seeds := SeedCentroids("cer", 2, 8)
	var bytesPerNode float64
	for i := 0; i < b.N; i++ {
		scheme, err := NewTestScheme(128, 4, 12, 4)
		if err != nil {
			b.Fatal(err)
		}
		res, err := runMode(data, Simulated, Options{
			Scheme: scheme, K: 2, InitCentroids: seeds,
			DMin: CERMin, DMax: CERMax,
			Epsilon: 1e4, MaxIterations: 1, Exchanges: 12,
			FracBits: 24, PackSlots: packSlots, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Centroids) == 0 {
			b.Fatal("no centroids")
		}
		bytesPerNode = res.AvgBytes
	}
	b.ReportMetric(bytesPerNode, "wirebytes/node")
}

// PackSlots is pinned to 1 so this benchmark keeps measuring the
// unpacked baseline it always measured (0 would auto-pack on this s=4
// scheme and silently shift the trajectory).
func BenchmarkEndToEndRealCrypto12(b *testing.B) { endToEndRealCrypto12(b, 1) }

// BenchmarkEndToEndRealCrypto12Packed is the packed counterpart: the
// 128-bit s=4 plaintext space holds 2 guarded slots at this exchange
// budget, halving the ciphertexts per frame. The wirebytes/node metric
// makes the bandwidth division visible next to the time speedup.
func BenchmarkEndToEndRealCrypto12Packed(b *testing.B) { endToEndRealCrypto12(b, 2) }

// BenchmarkEventBusNoSubscriber measures one pass over every emission
// site with no subscriber attached: each call must be a single atomic
// load — ~0 ns, 0 allocs — because the hot protocol loops call these
// unconditionally.
func BenchmarkEventBusNoSubscriber(b *testing.B) {
	em := &emitter{bus: newEventBus()}
	centroids := SeedCentroids("cer", 2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.iteration(1, centroids, 0.5, 1.0)
		em.phase(1, PhaseSum, i, b.N)
		em.churn(1, i, 0, ChurnModel)
	}
}

// --- Substrate benchmarks behind the cost model of benchfig's fig4 and
// fig5 tables.

func BenchmarkGossipSumCycle100k(b *testing.B) {
	const n = 100_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1
	}
	s := gossip.NewSum(vals, 0)
	e, err := sim.New(sim.Config{N: n, Seed: 1}, &sim.UniformSampler{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycle(s.Exchange)
	}
}

// BenchmarkGossipSumCycle100kParallel runs the same substrate cycle
// through the parallel engine (conflict-free batches on one worker per
// CPU) — the multicore counterpart of BenchmarkGossipSumCycle100k.
func BenchmarkGossipSumCycle100kParallel(b *testing.B) {
	const n = 100_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1
	}
	s := gossip.NewSum(vals, 0)
	e, err := sim.New(sim.Config{N: n, Seed: 1, Workers: runtime.NumCPU()}, &sim.UniformSampler{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycleOn(s)
	}
}

// BenchmarkEESumCycleRealCrypto measures one parallel cycle of the
// participant machines' sum exchanges over real Damgård–Jurik ciphertext
// vectors — the encrypted-substrate cost the end-to-end runs are built
// from.
func BenchmarkEESumCycleRealCrypto(b *testing.B) {
	const n, dim = 16, 25
	sch, err := damgardjurik.NewTestScheme(128, 4, n, 4)
	if err != nil {
		b.Fatal(err)
	}
	codec := homenc.NewCodec(24)
	initial := make([][]*big.Int, n)
	for i := range initial {
		vec := make([]*big.Int, dim)
		for j := range vec {
			vec[j] = codec.Encode(float64(i + j))
		}
		initial[i] = vec
	}
	ps := sumParticipants(sch, codec, initial)
	e, err := sim.New(sim.Config{N: n, Seed: 1}, &sim.UniformSampler{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycleOn(ps)
	}
}

func BenchmarkAssignCER100k(b *testing.B) {
	rng := randx.New(9, 9)
	data, _ := datasets.GenerateCER(100_000, rng)
	seeds := datasets.SeedCentroids("cer", 50, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runMode(data, Centralized, Options{InitCentroids: seeds, MaxIterations: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkNoiseShareGeneration(b *testing.B) {
	rng := randx.New(10, 10)
	dim := 50 * 25 // one Figure-5-sized vector
	for i := 0; i < b.N; i++ {
		for j := 0; j < dim; j++ {
			_ = rng.NoiseShare(1_000_000, 1920/math.Ln2)
		}
	}
	b.ReportMetric(float64(dim), "shares/op")
}

var sinkStr string

func BenchmarkTableRender(b *testing.B) {
	tab := &experiments.Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	for i := 0; i < 100; i++ {
		tab.AddRow(strconv.Itoa(i), "value")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStr = tab.String()
	}
}
