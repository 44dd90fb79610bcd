package eesum

import (
	"bytes"
	"math"
	"math/big"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/sim"
)

func plainScheme(t testing.TB, n int) homenc.Scheme {
	t.Helper()
	s, err := plain.New(nil, 256, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newEngine(t testing.TB, n int, churn float64) *sim.Engine {
	t.Helper()
	e, err := sim.New(sim.Config{N: n, Seed: 21, Churn: churn}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testEnv is an unpacked deployment over sch.
func testEnv(sch homenc.Scheme, codec homenc.Codec, workers int) *Env {
	return &Env{Scheme: sch, Pack: homenc.PackedCodec{Codec: codec, Slots: 1}, Workers: workers}
}

// population starts one participant per means contribution, each
// drawing its noise-shares from its stream of rng's family.
func population(env *Env, contributions [][]*big.Int, noise NoiseConfig, rng *randx.RNG) []*Participant {
	streams := NodeNoiseStreams(rng, len(contributions))
	ps := make([]*Participant, len(contributions))
	for i, c := range contributions {
		ps[i] = NewParticipant(env, i, streams[i], noise)
		ps[i].Start(c)
	}
	return ps
}

// sumsOf starts participants with no noise variables: their exchanges
// run the means sum (and the counter) alone.
func sumsOf(env *Env, contributions [][]*big.Int) []*Participant {
	return population(env, contributions, NoiseConfig{}, randx.New(0, 0))
}

// The phase exchangers the tests drive participants with.
type (
	sums        []*Participant
	corrections []*Participant
	decryptions []*Participant
)

func (ps sums) Exchange(a, b sim.NodeID, full bool)        { ps[a].ExchangeSum(ps[b], full) }
func (ps corrections) Exchange(a, b sim.NodeID, full bool) { ps[a].ExchangeDiss(ps[b], full) }
func (ps decryptions) Exchange(a, b sim.NodeID, full bool) { ps[a].ExchangeDec(ps[b], full) }
func (sums) ConcurrentExchangeSafe() bool                  { return true }
func (decryptions) ConcurrentExchangeSafe() bool           { return true }

// run drives cycles of x on the engine.
func run(e *sim.Engine, cycles int, x sim.Exchanger) {
	for c := 0; c < cycles; c++ {
		e.RunCycleOn(x)
	}
}

// settle drives decryption cycles until every participant gathered τ
// key-shares or maxCycles elapsed, returning the cycles used.
func settle(e *sim.Engine, ps []*Participant, maxCycles int) int {
	for c := 0; c < maxCycles; c++ {
		done := true
		for _, p := range ps {
			done = done && p.Settled()
		}
		if done {
			return c
		}
		e.RunCycleOn(decryptions(ps))
	}
	return maxCycles
}

// uniformLambdas is a noise scale vector with a single scale.
func uniformLambdas(dim int, lambda float64) []float64 {
	ls := make([]float64, dim)
	for i := range ls {
		ls[i] = lambda
	}
	return ls
}

// plainDecrypt is the decryption oracle of the plain scheme.
func plainDecrypt(c homenc.Ciphertext) *big.Int { return c.V }

// estimate decodes a sum state with a non-threshold decryption oracle.
func estimate(env *Env, st SumState, decrypt func(homenc.Ciphertext) *big.Int) ([]float64, error) {
	ms := make([]*big.Int, len(st.CTs))
	for j, c := range st.CTs {
		ms[j] = decrypt(c)
	}
	return DecodePackedState(env.Scheme, env.Pack, ms, st.Omega, len(ms))
}

// logical is a state's first value with the epoch scaling divided out
// but not the weight: summed over participants it is the sum's mass.
func logical(codec homenc.Codec, st SumState) float64 {
	return codec.Decode(st.CTs[0].V, nil) / math.Pow(2, float64(st.Epoch))
}

func TestEESumConvergesPlain(t *testing.T) {
	const n = 64
	codec := homenc.NewCodec(20)
	env := testEnv(plainScheme(t, n), codec, 1)
	initial := make([][]*big.Int, n)
	var want0, want1 float64
	for i := 0; i < n; i++ {
		v0 := float64(i%5) + 0.25
		v1 := -float64(i % 3)
		want0 += v0
		want1 += v1
		initial[i] = []*big.Int{codec.Encode(v0), codec.Encode(v1)}
	}
	ps := sumsOf(env, initial)
	run(newEngine(t, n, 0), 25, sums(ps))
	for i, p := range ps {
		est, err := estimate(env, p.Means.State(), plainDecrypt)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if math.Abs(est[0]-want0) > 1e-5*math.Abs(want0) {
			t.Fatalf("node %d dim 0: estimate %v, want %v", i, est[0], want0)
		}
		if math.Abs(est[1]-want1) > 1e-5*math.Abs(want1) {
			t.Fatalf("node %d dim 1: estimate %v, want %v", i, est[1], want1)
		}
	}
}

func TestEESumConvergesDamgardJurik(t *testing.T) {
	// The real thing, end to end: 16 nodes, 128-bit key, threshold 3.
	const n = 16
	sch, err := damgardjurik.NewTestScheme(128, 1, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	codec := homenc.NewCodec(16)
	env := testEnv(sch, codec, 1)
	initial := make([][]*big.Int, n)
	var want float64
	for i := 0; i < n; i++ {
		v := float64(i) + 0.5
		want += v
		initial[i] = []*big.Int{codec.Encode(v)}
	}
	ps := sumsOf(env, initial)
	// Epochs cascade ~4 per cycle, so 18 cycles stay well inside the
	// ~103-epoch headroom of a 128-bit key with these encodings.
	run(newEngine(t, n, 0), 18, sums(ps))
	maxEpoch := 0
	for _, p := range ps {
		maxEpoch = max(maxEpoch, p.Means.Epoch)
	}
	if head := homenc.HeadroomEpochs(sch.PlaintextSpace(), codec.Encode(want)); maxEpoch > head {
		t.Fatalf("test exceeded plaintext headroom: epoch %d > %d", maxEpoch, head)
	}
	for _, node := range []int{0, 7, 15} {
		est, err := estimate(env, ps[node].Means.State(), sch.Decrypt)
		if err != nil {
			t.Fatal(err)
		}
		// The residual is gossip approximation error, not crypto error.
		if math.Abs(est[0]-want) > 1e-3*want {
			t.Errorf("node %d: estimate %v, want %v", node, est[0], want)
		}
	}
}

func TestEESumEpochScaling(t *testing.T) {
	// Force an exchange between nodes at different epochs and verify the
	// scaling rule keeps logical values consistent (Appendix C.2.1).
	codec := homenc.NewCodec(10)
	ps := sumsOf(testEnv(plainScheme(t, 4), codec, 1), [][]*big.Int{
		{codec.Encode(8)}, {codec.Encode(0)}, {codec.Encode(0)}, {codec.Encode(0)},
	})
	// Nodes 0,1 exchange twice; node 2 stays at epoch 0; then 0-2 exchange.
	ps[0].ExchangeSum(ps[1], true)
	ps[0].ExchangeSum(ps[1], true)
	if ps[0].Means.Epoch != 2 || ps[2].Means.Epoch != 0 {
		t.Fatalf("epochs = %d, %d", ps[0].Means.Epoch, ps[2].Means.Epoch)
	}
	ps[0].ExchangeSum(ps[2], true)
	if ps[0].Means.Epoch != 3 || ps[2].Means.Epoch != 3 {
		t.Fatalf("after mixed exchange, epochs = %d, %d", ps[0].Means.Epoch, ps[2].Means.Epoch)
	}
	// Total logical mass must still be 8: the logical value of node i is
	// dec_i/2^epoch_i.
	var total float64
	for _, p := range ps {
		total += logical(codec, p.Means.State())
	}
	if math.Abs(total-8) > 1e-9 {
		t.Errorf("logical mass = %v, want 8", total)
	}
}

func TestEESumMidFailureBreaksMass(t *testing.T) {
	codec := homenc.NewCodec(10)
	ps := sumsOf(testEnv(plainScheme(t, 2), codec, 1), [][]*big.Int{{codec.Encode(4)}, {codec.Encode(0)}})
	ps[0].ExchangeSum(ps[1], false) // responder never applied its half
	if l0, l1 := logical(codec, ps[0].Means.State()), logical(codec, ps[1].Means.State()); math.Abs(l0+l1-4) < 1e-12 {
		t.Error("half-exchange conserved mass; churn corruption not modeled")
	}
}

func TestAddEncryptedShiftsEstimate(t *testing.T) {
	const n = 8
	codec := homenc.NewCodec(16)
	sch := plainScheme(t, n)
	env := testEnv(sch, codec, 1)
	initial := make([][]*big.Int, n)
	for i := range initial {
		initial[i] = []*big.Int{codec.Encode(1)}
	}
	ps := sumsOf(env, initial)
	run(newEngine(t, n, 0), 12, sums(ps))
	before, err := estimate(env, ps[3].Means.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	img := ps[3].Means.CTs.AppendTo(nil)
	shifted, err := AddEncryptedState(sch, ps[3].Means.Operand(), []*big.Int{codec.Encode(2.5)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := estimate(env, shifted.State(), plainDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after[0]-before[0]-2.5) > 1e-4 {
		t.Errorf("AddEncryptedState shifted estimate by %v, want 2.5", after[0]-before[0])
	}
	if !bytes.Equal(ps[3].Means.CTs.AppendTo(nil), img) {
		t.Error("AddEncryptedState wrote the state it read")
	}
}

func TestEstimateUndefinedZeroWeight(t *testing.T) {
	env := testEnv(plainScheme(t, 2), homenc.NewCodec(8), 1)
	ps := sumsOf(env, [][]*big.Int{{big.NewInt(1)}, {big.NewInt(2)}})
	if _, err := estimate(env, ps[1].Means.State(), plainDecrypt); err == nil {
		t.Error("zero-weight node estimate should fail")
	}
}

func TestEESumOverflowSafety(t *testing.T) {
	// Running more cycles than the headroom allows on a tiny plaintext
	// space must corrupt estimates — this test documents why protocol
	// drivers must respect homenc.HeadroomEpochs.
	space := new(big.Int).Lsh(big.NewInt(1), 32)
	sch, err := plain.New(space, 0, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	codec := homenc.NewCodec(8)
	env := testEnv(sch, codec, 1)
	const n = 8
	initial := make([][]*big.Int, n)
	for i := range initial {
		initial[i] = []*big.Int{codec.Encode(100)}
	}
	ps := sumsOf(env, initial)
	headroom := homenc.HeadroomEpochs(space, codec.Encode(800))
	run(newEngine(t, n, 0), headroom*2, sums(ps)) // way past safety
	est, err := estimate(env, ps[0].Means.State(), func(c homenc.Ciphertext) *big.Int {
		return homenc.Centered(c.V, space)
	})
	if err == nil && math.Abs(est[0]-800) < 1 {
		t.Skip("estimate survived overflow (possible but unlikely); headroom is conservative")
	}
}
