package chiaroscuro

import (
	"errors"
	"math/bits"
	"testing"

	"chiaroscuro/internal/core"
)

// churnSetup is a 16-participant plain-scheme run at τ = 5 under Fig.
// 3's heaviest churn, 0.5 per cycle.
func churnSetup(t *testing.T) (*Dataset, Options) {
	t.Helper()
	data, _ := GenerateCER(16, 21)
	scheme, err := NewSimulationScheme(64, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	return data, Options{
		Scheme: scheme, K: 2, InitCentroids: SeedCentroids("cer", 2, 22),
		DMin: CERMin, DMax: CERMax, Epsilon: 1e4, MaxIterations: 1, Exchanges: 10,
		FracBits: 24, Churn: 0.5, Workers: 2,
	}
}

// TestPhaseBudgetIsTyped pins the one error a phase that runs out of
// cycles fails with: one decryption cycle cannot gather five key-shares,
// in the simulator or over the wire.
func TestPhaseBudgetIsTyped(t *testing.T) {
	data, opts := churnSetup(t)
	opts.Churn, opts.DecryptCycles = 0, 1
	for _, mode := range []Mode{Simulated, Networked} {
		if _, err := runMode(data, mode, opts); !errors.Is(err, ErrPhaseBudget) {
			t.Errorf("%v with one decryption cycle: %v, want ErrPhaseBudget", mode, err)
		}
	}
}

// TestChurnSeedCompletesWithDerivedPhases pins seed 386, the one seed of
// the first thousand whose dissemination the old slack formula's 16
// cycles (FixedPhaseCycles(16) = 16/18 before the phase lengths were
// derived) left unconverged at churn 0.5. The lengths Networked mode
// derives carry it: the networked run completes, and the simulator run
// at the same lengths releases the same centroids bit for bit.
func TestChurnSeedCompletesWithDerivedPhases(t *testing.T) {
	data, opts := churnSetup(t)
	opts.Seed = 386
	opts.DissCycles, opts.DecryptCycles = 16, 18
	if _, err := runMode(data, Simulated, opts); !errors.Is(err, ErrPhaseBudget) {
		t.Fatalf("16/18 cycles at seed 386: %v, want ErrPhaseBudget", err)
	}
	opts.DissCycles, opts.DecryptCycles = 0, 0
	got, err := runMode(data, Networked, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := got.Traces[0]
	if tr.DissCycles <= 16 {
		t.Fatalf("derived %d dissemination cycles at churn 0.5, want more than the 16 that fell short", tr.DissCycles)
	}
	opts.DissCycles, opts.DecryptCycles = tr.DissCycles, tr.DecryptCycles
	want, err := runMode(data, Simulated, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameCentroids(t, got.Centroids, want.Centroids)
}

// TestFixedPhaseCyclesCoversEveryThreshold holds FixedPhaseCycles to its
// doc: for np from 2 to 2,000, its lengths cover core.PhaseCycles at
// every threshold up to bits.Len(np) without loss. That rests on
// PhaseCycles never decreasing in τ or in loss, which it checks too.
func TestFixedPhaseCyclesCoversEveryThreshold(t *testing.T) {
	losses := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99}
	for np := 2; np <= 2000; np++ {
		fixedDiss, fixedDec := FixedPhaseCycles(np)
		prevDiss, prevDec := 0, 0
		for tau := 1; tau <= np; tau++ {
			diss, dec := core.PhaseCycles(np, tau, 0, false)
			if diss < prevDiss || dec < prevDec {
				t.Fatalf("PhaseCycles(%d, %d, 0) = %d/%d, below %d/%d at τ = %d", np, tau, diss, dec, prevDiss, prevDec, tau-1)
			}
			prevDiss, prevDec = diss, dec
			if tau <= bits.Len(uint(np)) && (diss > fixedDiss || dec > fixedDec) {
				t.Fatalf("FixedPhaseCycles(%d) = %d/%d, short of PhaseCycles(%d, %d, 0) = %d/%d", np, fixedDiss, fixedDec, np, tau, diss, dec)
			}
			lossDiss, lossDec := 0, 0
			for _, loss := range losses {
				diss, dec := core.PhaseCycles(np, tau, loss, false)
				if diss < lossDiss || dec < lossDec {
					t.Fatalf("PhaseCycles(%d, %d, %v) = %d/%d, below %d/%d at a smaller loss", np, tau, loss, diss, dec, lossDiss, lossDec)
				}
				lossDiss, lossDec = diss, dec
			}
		}
	}
}
