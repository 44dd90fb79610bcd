package eesum

import (
	"math/big"
	"runtime"
	"testing"

	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/sim"
)

// runEESum executes a fixed EESum schedule with the given worker count
// and returns node 0's decoded estimate — which must not depend on the
// worker count in any way (the encryption randomness cancels exactly).
func runEESum(t *testing.T, workers int, midFailure bool) []float64 {
	t.Helper()
	sch, err := damgardjurik.NewTestScheme(128, 2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	codec := homenc.NewCodec(20)
	env := testEnv(sch, codec, workers)
	const n, dim = 8, 6
	initial := make([][]*big.Int, n)
	for i := range initial {
		vec := make([]*big.Int, dim)
		for j := range vec {
			vec[j] = codec.Encode(float64(i*dim+j) / 3)
		}
		initial[i] = vec
	}
	ps := sumsOf(env, initial)
	cfg := sim.Config{N: n, Seed: 99, Workers: workers}
	if midFailure {
		cfg.Churn = 0.15
		cfg.MidFailure = true
	}
	e, err := sim.New(cfg, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	run(e, 10, sums(ps))
	est, err := estimate(env, ps[0].Means.State(), sch.Decrypt)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestEESumWorkerCountInvariance(t *testing.T) {
	for _, midFailure := range []bool{false, true} {
		want := runEESum(t, 1, midFailure)
		for _, workers := range []int{4, runtime.NumCPU()} {
			got := runEESum(t, workers, midFailure)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("midFailure=%v workers=%d: estimate[%d] = %v, serial %v",
						midFailure, workers, j, got[j], want[j])
				}
			}
		}
	}
}

// runDecryption drives the epidemic decryption with the given worker
// count and returns node 0's decoded values.
func runDecryption(t *testing.T, workers int) []float64 {
	t.Helper()
	sch, err := damgardjurik.NewTestScheme(128, 2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	codec := homenc.NewCodec(20)
	const n, dim = 8, 5
	cts := make([]homenc.Ciphertext, dim)
	for j := range cts {
		cts[j] = sch.Encrypt(codec.Encode(float64(10 + j)))
	}
	// Every node converged to the same state, as after an EESum.
	ps := decrypting(testEnv(sch, codec, workers), n, cts)
	e, err := sim.New(sim.Config{N: n, Seed: 5, Workers: workers}, &sim.UniformSampler{})
	if err != nil {
		t.Fatal(err)
	}
	if settle(e, ps, 64) == 64 {
		t.Fatal("decryption did not complete")
	}
	vals, err := ps[0].Release()
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestDecryptionWorkerCountInvariance(t *testing.T) {
	want := runDecryption(t, 1)
	for j, v := range want {
		if v != float64(10+j) {
			t.Fatalf("serial decryption wrong: vals[%d] = %v", j, v)
		}
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := runDecryption(t, workers)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("workers=%d: vals[%d] = %v, serial %v", workers, j, got[j], want[j])
			}
		}
	}
}
