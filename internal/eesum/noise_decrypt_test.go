package eesum

import (
	"math"
	"math/big"
	"slices"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/sim"
)

// zeros is a means contribution of dim encoded zeros, for tests about
// the noise: the sum then carries the noise-shares alone.
func zeros(n, dim int) [][]*big.Int {
	out := make([][]*big.Int, n)
	for i := range out {
		out[i] = make([]*big.Int, dim)
		for j := range out[i] {
			out[i][j] = big.NewInt(0)
		}
	}
	return out
}

func TestNoiseGenExactPopulation(t *testing.T) {
	// With nν equal to the true population, no correction is needed and
	// the aggregated noise must be Laplace(λ): check the variance over
	// repeated runs.
	const n = 24
	const lambda = 5.0
	const trials = 120
	codec := homenc.NewCodec(24)
	var sum2 float64
	rng := randx.New(31, 31)
	for trial := 0; trial < trials; trial++ {
		env := testEnv(plainScheme(t, n), codec, 1)
		ps := population(env, zeros(n, 1), NoiseConfig{Lambdas: uniformLambdas(1, lambda), NShares: n}, rng)
		e, err := sim.New(sim.Config{N: n, Seed: uint64(trial), MessageBytes: 1}, &sim.UniformSampler{})
		if err != nil {
			t.Fatal(err)
		}
		run(e, 15, sums(ps))
		// Surplus should be zero: corrections are all-zero vectors.
		for i, p := range ps {
			if _, cor := proposal(p); cor[0] != 0 {
				t.Fatalf("trial %d: node %d proposed nonzero correction %v with exact nν", trial, i, cor[0])
			}
		}
		est, err := estimate(env, ps[0].Means.State(), plainDecrypt)
		if err != nil {
			t.Fatal(err)
		}
		sum2 += est[0] * est[0]
	}
	variance := sum2 / trials
	want := 2 * lambda * lambda
	if math.Abs(variance-want)/want > 0.45 {
		t.Errorf("aggregated noise variance = %v, want ~%v (Lemma 1)", variance, want)
	}
}

func TestNoiseGenSurplusCorrection(t *testing.T) {
	// With nν below the true population, the counter detects the surplus,
	// every node proposes a correction, dissemination agrees on one, and
	// applying it changes the encrypted sum.
	const n = 32
	const nShares = 20 // under-estimate of the population
	codec := homenc.NewCodec(24)
	env := testEnv(plainScheme(t, n), codec, 1)
	ps := population(env, zeros(n, 2), NoiseConfig{Lambdas: uniformLambdas(2, 1), NShares: nShares}, randx.New(32, 32))
	e, err := sim.New(sim.Config{N: n, Seed: 7}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	run(e, 20, sums(ps))
	// Counter must be near n at every node.
	for i, p := range ps {
		if p.CtrW <= 0 || math.Abs(p.CtrS/p.CtrW-n) > 0.01 {
			t.Fatalf("node %d: counter σ/ω = %v/%v, want %d", i, p.CtrS, p.CtrW, n)
		}
	}
	nonZero := 0
	cors := make([][]float64, n)
	for i, p := range ps {
		_, cors[i] = proposal(p)
		if cors[i][0] != 0 || cors[i][1] != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no node proposed a surplus correction despite nν < population")
	}
	// Applying a correction shifts the noise estimate by -correction:
	// the means are zeros, so the sum is the noise and the perturbed
	// means are the corrected noise.
	before, err := estimate(env, ps[0].Means.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ps[0].perturb(cors[0])
	if err != nil {
		t.Fatal(err)
	}
	after, err := estimate(env, perturbed.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		wantShift := -cors[0][d]
		if math.Abs((after[d]-before[d])-wantShift) > 1e-4 {
			t.Errorf("dim %d: correction shifted by %v, want %v", d, after[d]-before[d], wantShift)
		}
	}
	// Every node stands for election with its own perturbed means; the
	// dissemination elects one vector for everyone.
	for _, p := range ps {
		if err := p.Propose(); err != nil {
			t.Fatal(err)
		}
	}
	e2, err := sim.New(sim.Config{N: n, Seed: 8}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	agreed := func() bool {
		for _, p := range ps[1:] {
			if p.VecID != ps[0].VecID {
				return false
			}
		}
		return true
	}
	for c := 0; c < 50 && !agreed(); c++ {
		e2.RunCycleOn(corrections(ps))
	}
	if !agreed() {
		t.Fatal("correction dissemination did not converge")
	}
	for i, p := range ps {
		if p.Vec != ps[0].Vec || p.VecOmega != ps[0].VecOmega {
			t.Fatalf("node %d holds the elected identifier with another vector", i)
		}
	}
}

// proposal draws p's correction proposal from its stream, as Propose
// does, from the counter's estimate.
func proposal(p *Participant) (uint64, []float64) {
	return CorrectionProposal(p.stream, p.noise, p.CtrS/p.CtrW, p.CtrW > 0)
}

// TestFoldedSumIsMeansPlusNoise: Start folds each noise-share into its
// contribution, and the one sum that results is exactly what summing the
// means and the noise apart and adding them (Algorithm 3, line 7) gives:
// three populations with the same streams run the same exchanges — the
// means with their noise, the means alone, the noise alone — and the
// first's estimate is the sum of the other two's, as is the vector it
// stands for election with once the correction is zero.
func TestFoldedSumIsMeansPlusNoise(t *testing.T) {
	const n = 16
	codec := homenc.NewCodec(20)
	env := testEnv(plainScheme(t, n), codec, 1)
	meansInit := make([][]*big.Int, n)
	for i := range meansInit {
		meansInit[i] = []*big.Int{codec.Encode(float64(i))}
	}
	noise := NoiseConfig{Lambdas: uniformLambdas(1, 2), NShares: n}
	silent := NoiseConfig{Lambdas: uniformLambdas(1, 1e-300), NShares: n}
	estimates := make([]float64, 3)
	var folded *Participant
	for k, pop := range []struct {
		init  [][]*big.Int
		noise NoiseConfig
	}{{meansInit, noise}, {meansInit, silent}, {zeros(n, 1), noise}} {
		ps := population(env, pop.init, pop.noise, randx.New(33, 33))
		e, err := sim.New(sim.Config{N: n, Seed: 9}, &sim.UniformSampler{})
		if err != nil {
			t.Fatal(err)
		}
		run(e, 12, sums(ps))
		est, err := estimate(env, ps[4].Means.State(), plainDecrypt)
		if err != nil {
			t.Fatal(err)
		}
		estimates[k] = est[0]
		if k == 0 {
			folded = ps[4]
		}
	}
	means, alone := estimates[1], estimates[2]
	if math.Abs(estimates[0]-(means+alone)) > 1e-6 {
		t.Errorf("folded sum = %v, want mean %v + noise %v", estimates[0], means, alone)
	}
	if alone == 0 {
		t.Fatal("the noise-shares summed to zero: nothing was folded in")
	}
	// nν is the population: the counter finds no surplus, and the
	// correction is zero.
	p := folded
	if math.Round(p.CtrS/p.CtrW) != n {
		t.Fatalf("counter estimate %v, want %d", p.CtrS/p.CtrW, n)
	}
	if err := p.Propose(); err != nil {
		t.Fatal(err)
	}
	perturbed, err := estimate(env, SumSide{CTs: p.Vec, Omega: p.VecOmega}.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(perturbed[0]-(means+alone)) > 1e-6 {
		t.Errorf("perturbed = %v, want mean %v + noise %v", perturbed[0], means, alone)
	}
	if p.VecOmega.Cmp(p.Means.Omega) != 0 {
		t.Error("the elected vector does not carry the sum's weight")
	}
}

// countingReader is a deterministic entropy source that counts the
// bytes drawn from it.
type countingReader struct {
	state uint64
	n     int
}

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.state >> 56)
	}
	r.n += len(p)
	return len(p), nil
}

// TestProposeDrawsNoRandomness: the correction is public, so
// subtracting it from the sum — Propose's perturbation, before the
// dissemination — draws no randomizer: the scheme's entropy source is
// not read. The correction still shifts the noise estimate by exactly
// -correction.
func TestProposeDrawsNoRandomness(t *testing.T) {
	const n, dim = 4, 3
	p, q, err := damgardjurik.KnownSafePrimes(64)
	if err != nil {
		t.Fatal(err)
	}
	random := &countingReader{state: 5}
	sch, err := damgardjurik.NewFromPrimes(random, p, q, 1, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(sch, homenc.NewCodec(16), 1)
	// Noise-shares for two participants fewer than there are: the
	// correction subtracts the surplus two draw.
	ps := population(env, zeros(n, dim), NoiseConfig{Lambdas: uniformLambdas(dim, 1), NShares: n - 2}, randx.New(5, 5))
	if random.n == 0 {
		t.Fatal("the encryptions drew nothing from the scheme's entropy source")
	}
	decrypt := func(c homenc.Ciphertext) *big.Int { return homenc.Centered(sch.Decrypt(c), sch.NS) }
	part := ps[0]
	before, err := estimate(env, part.Means.State(), decrypt)
	if err != nil {
		t.Fatal(err)
	}
	part.CtrW = 1.0 / n // the counter as converged: n participants
	_, cor := proposal(part)
	if slices.Max(cor) == 0 && slices.Min(cor) == 0 {
		t.Fatal("the correction is zero: nothing to subtract")
	}
	drawn := random.n
	perturbed, err := part.perturb(cor)
	if err != nil {
		t.Fatal(err)
	}
	ps[1].CtrW = 1.0 / n
	if err := ps[1].Propose(); err != nil {
		t.Fatal(err)
	}
	if got := random.n - drawn; got != 0 {
		t.Errorf("the perturbation read %d bytes of randomness, want 0", got)
	}
	// The means are zeros: the sum is the noise, and the perturbed means
	// are the corrected noise.
	after, err := estimate(env, perturbed.State(), decrypt)
	if err != nil {
		t.Fatal(err)
	}
	for j := range after {
		if shift := after[j] - before[j]; math.Abs(shift+cor[j]) > 1e-4 {
			t.Errorf("dim %d: correction shifted the noise estimate by %v, want %v", j, shift, -cor[j])
		}
	}
}

// decrypting gives every participant the same converged state to
// decrypt: one value a ciphertext, unpacked.
func decrypting(env *Env, n int, cts []homenc.Ciphertext) []*Participant {
	elected := homenc.NewVector(cts)
	ps := make([]*Participant, n)
	for i := range ps {
		ps[i] = NewParticipant(env, i, nil, NoiseConfig{})
		ps[i].VecID, ps[i].Vec, ps[i].VecOmega = 1, elected, big.NewInt(1)
		ps[i].StartDecryption(len(cts))
	}
	return ps
}

func TestEpidemicDecryptionPlain(t *testing.T) {
	const n = 12
	sch, err := plain.New(nil, 0, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	// No fractional bits: the released values are the plaintexts.
	env := testEnv(sch, homenc.Codec{}, 1)
	ps := decrypting(env, n, []homenc.Ciphertext{sch.Encrypt(big.NewInt(77)), sch.Encrypt(big.NewInt(-3))})
	e, err := sim.New(sim.Config{N: n, Seed: 10}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	if settle(e, ps, 100) == 100 {
		t.Fatal("epidemic decryption did not complete")
	}
	for _, node := range []int{0, 5, 11} {
		vals, err := ps[node].Release()
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] != 77 || vals[1] != -3 {
			t.Errorf("node %d decrypted %v/%v", node, vals[0], vals[1])
		}
	}
	if _, err := NewParticipant(env, 0, nil, NoiseConfig{}).Release(); err == nil {
		t.Error("a release below the threshold must fail")
	}
}

func TestEpidemicDecryptionDamgardJurik(t *testing.T) {
	// Full stack: EESum over DJ + epidemic threshold decryption, no
	// trusted decryptor anywhere.
	const n = 10
	sch, err := damgardjurik.NewTestScheme(128, 1, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	codec := homenc.NewCodec(16)
	env := testEnv(sch, codec, 1)
	initial := make([][]*big.Int, n)
	var want float64
	for i := 0; i < n; i++ {
		v := float64(i) * 1.5
		want += v
		initial[i] = []*big.Int{codec.Encode(v)}
	}
	// Noise far below the encoding's resolution: what is decrypted is
	// the sum.
	ps := population(env, initial, NoiseConfig{Lambdas: uniformLambdas(1, 1e-9), NShares: n}, randx.New(11, 11))
	e, err := sim.New(sim.Config{N: n, Seed: 11}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	run(e, 20, sums(ps))

	// Every node stands for election with its own converged state; the
	// elected one is decrypted epidemically.
	for _, p := range ps {
		if err := p.Propose(); err != nil {
			t.Fatal(err)
		}
	}
	run(e, 20, corrections(ps))
	for _, p := range ps {
		p.StartDecryption(1)
	}
	if cycles := settle(e, ps, 100); cycles >= 100 {
		t.Fatal("epidemic decryption did not complete")
	}
	for _, node := range []int{0, 2, 9} {
		vals, err := ps[node].Release()
		if err != nil {
			t.Fatal(err)
		}
		// Tolerance covers gossip approximation error; the crypto is exact.
		if math.Abs(vals[0]-want) > 1e-3*want {
			t.Errorf("node %d: epidemic threshold decrypt = %v, want %v", node, vals[0], want)
		}
	}
}

func TestDecryptionLatencyExactCompletes(t *testing.T) {
	const n, tau = 200, 20
	rng := randx.New(41, 41)
	dl, err := NewDecryptionLatency(n, tau, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{N: n, Seed: 12}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	cycles := 0
	for ; cycles < 500 && dl.FractionDone() < 1; cycles++ {
		e.RunCycle(dl.Exchange)
	}
	if dl.FractionDone() < 1 {
		t.Fatal("exact latency sim never completed")
	}
	// Roughly linear in tau: with adoption the completion should take
	// O(tau) cycles, far below the 500 cap.
	if cycles > 200 {
		t.Errorf("completion took %d cycles for tau=%d", cycles, tau)
	}
}

func TestDecryptionLatencyMeanFieldTracksExact(t *testing.T) {
	const n, tau = 400, 40
	run := func(exact bool) float64 {
		rng := randx.New(42, 42)
		dl, err := NewDecryptionLatency(n, tau, exact, rng)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sim.Config{N: n, Seed: 13}, &sim.UniformSampler{})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2000; c++ {
			e.RunCycle(dl.Exchange)
			if dl.FractionDone() >= 1 {
				break
			}
		}
		return e.AvgMessages()
	}
	exact, mf := run(true), run(false)
	if mf < exact/3 || mf > exact*3 {
		t.Errorf("mean-field messages %v vs exact %v: models diverge", mf, exact)
	}
}

func TestExpectedDecryptMessages(t *testing.T) {
	// ≈ tau for tau << n.
	if got := ExpectedDecryptMessages(1_000_000, 100); math.Abs(got-100) > 1 {
		t.Errorf("E[msgs] = %v, want ~100", got)
	}
	// Superlinear as tau -> n.
	if got := ExpectedDecryptMessages(1000, 900); got < 2000 {
		t.Errorf("E[msgs] = %v, want superlinear blowup", got)
	}
	if !math.IsInf(ExpectedDecryptMessages(10, 10), 1) {
		t.Error("tau = n must be infinite")
	}
	if _, err := NewDecryptionLatency(10, 11, true, randx.New(1, 1)); err == nil {
		t.Error("threshold > n must fail")
	}
}
