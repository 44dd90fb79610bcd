package eesum

import (
	"math"
	"math/big"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/sim"
)

// zeros is a means contribution of dim encoded zeros, for tests about
// the noise side.
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
			p.ProposeCorrection()
			if p.CorVec[0] != 0 {
				t.Fatalf("trial %d: node %d proposed nonzero correction %v with exact nν", trial, i, p.CorVec[0])
			}
		}
		est, err := estimate(env, ps[0].Noise.State(), plainDecrypt)
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
	// applying it changes the encrypted noise state.
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
	for _, p := range ps {
		p.ProposeCorrection()
		if p.CorVec[0] != 0 || p.CorVec[1] != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no node proposed a surplus correction despite nν < population")
	}
	// Disseminate and check unicity.
	e2, err := sim.New(sim.Config{N: n, Seed: 8}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	agreed := func() bool {
		for _, p := range ps[1:] {
			if p.CorID != ps[0].CorID {
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
	// Applying the correction shifts node 0's noise estimate by
	// -correction.
	before, err := estimate(env, ps[0].Noise.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps[0].StartDecryption(); err != nil {
		t.Fatal(err)
	}
	after, err := estimate(env, ps[0].Noise.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		wantShift := -ps[0].CorVec[d]
		if math.Abs((after[d]-before[d])-wantShift) > 1e-4 {
			t.Errorf("dim %d: correction shifted by %v, want %v", d, after[d]-before[d], wantShift)
		}
	}
}

func TestPerturbMeansLockstep(t *testing.T) {
	// The means and noise sums ride the same exchanges, so they stay in
	// lockstep and their ciphertexts add directly (Algorithm 3, line 7).
	const n = 16
	codec := homenc.NewCodec(20)
	env := testEnv(plainScheme(t, n), codec, 1)
	meansInit := make([][]*big.Int, n)
	for i := range meansInit {
		meansInit[i] = []*big.Int{codec.Encode(float64(i))}
	}
	ps := population(env, meansInit, NoiseConfig{Lambdas: uniformLambdas(1, 2), NShares: n}, randx.New(33, 33))
	e, err := sim.New(sim.Config{N: n, Seed: 9}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	run(e, 12, sums(ps))
	p := ps[4]
	meanEst, err := estimate(env, p.Means.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	p.ProposeCorrection()
	if err := p.StartDecryption(); err != nil {
		t.Fatal(err)
	}
	noiseEst, err := estimate(env, p.Noise.State(), plainDecrypt) // corrected
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := estimate(env, p.Means.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(perturbed[0]-(meanEst[0]+noiseEst[0])) > 1e-6 {
		t.Errorf("perturbed = %v, want mean %v + noise %v", perturbed[0], meanEst[0], noiseEst[0])
	}
	if p.DecCTs.Values()[0].V.Cmp(p.Means.State().CTs[0].V) != 0 || p.DecOmega.Cmp(p.Means.Omega) != 0 {
		t.Error("the decryption did not start on the perturbed means")
	}
}

func TestPerturbMeansOutOfLockstep(t *testing.T) {
	codec := homenc.NewCodec(20)
	sch := plainScheme(t, 4)
	init := [][]*big.Int{{big.NewInt(1)}, {big.NewInt(1)}, {big.NewInt(1)}, {big.NewInt(1)}}
	ps := population(testEnv(sch, codec, 1), init, NoiseConfig{Lambdas: uniformLambdas(1, 1), NShares: 4}, randx.New(1, 1))
	// The means move, the noise does not.
	ps[0].Means = mergeSum(sch, ps[0].Means.Operand(), ps[1].Means.Operand(), 1)
	ps[0].ProposeCorrection()
	if err := ps[0].StartDecryption(); err == nil {
		t.Error("out-of-lockstep perturbation must fail")
	}
}

// decrypting gives every participant the same converged state to
// decrypt.
func decrypting(env *Env, n int, cts []homenc.Ciphertext) []*Participant {
	ps := make([]*Participant, n)
	for i := range ps {
		ps[i] = NewParticipant(env, i, nil, NoiseConfig{})
		ps[i].DecCTs, ps[i].DecOmega = homenc.NewVector(cts), big.NewInt(1)
		ps[i].DecParts = make(map[int]*homenc.Partials)
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
		vals, err := ps[node].Release(2)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] != 77 || vals[1] != -3 {
			t.Errorf("node %d decrypted %v/%v", node, vals[0], vals[1])
		}
	}
	if _, err := NewParticipant(env, 0, nil, NoiseConfig{}).Release(2); err == nil {
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

	// Every node decrypts its own converged state epidemically.
	for _, p := range ps {
		p.ProposeCorrection()
		if err := p.StartDecryption(); err != nil {
			t.Fatal(err)
		}
	}
	if cycles := settle(e, ps, 100); cycles >= 100 {
		t.Fatal("epidemic decryption did not complete")
	}
	for _, node := range []int{0, 2, 9} {
		vals, err := ps[node].Release(1)
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
