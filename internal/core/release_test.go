package core

import (
	"errors"
	"fmt"
	"testing"

	"chiaroscuro/internal/homenc/plain"
)

// TestOneReleasePerIteration runs the simulator over the grid on which
// the epidemic decryption used to decrypt many vectors at once (plain
// scheme; np, τ = 12, 4 / 50, 4 / 50, 16 / 200, 4 / 200, 66), with
// adaptive phases and with the lengths a deployment derives
// (PhaseCycles). Every participant must release the one elected vector
// (the simulator fails the run otherwise), no participant may apply its
// key-share more than once, and no phase may run out of cycles.
func TestOneReleasePerIteration(t *testing.T) {
	seeds := 5
	if testing.Short() || raceEnabled {
		seeds = 1
	}
	for _, g := range []struct{ np, tau int }{{12, 4}, {50, 4}, {50, 16}, {200, 4}, {200, 66}} {
		for _, derived := range []bool{false, true} {
			t.Run(fmt.Sprintf("np%d/tau%d/derived=%v", g.np, g.tau, derived), func(t *testing.T) {
				t.Parallel()
				const n, k = 4, 2
				data, centers := blobs(g.np, n, k, 61)
				sch, err := plain.New(nil, 256, g.np, g.tau)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					K: k, InitCentroids: offSeeds(centers, 2), DMin: 0, DMax: 60,
					Epsilon: 1, MaxIterations: 1, Workers: 1,
				}
				if derived {
					cfg.DissCycles, cfg.DecryptCycles = PhaseCycles(g.np, g.tau, 0, false)
				}
				apps, worstDiss, worstDec := 0, 0, 0
				for s := 0; s < seeds; s++ {
					cfg.Seed = uint64(s)
					nw, err := NewNetwork(data, sch, cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := nw.Run()
					if errors.Is(err, ErrPhaseBudget) {
						t.Fatalf("seed %d: %v", s, err)
					}
					if err != nil {
						t.Fatal(err)
					}
					tr := res.Traces[0]
					if tr.ShareApplications < g.tau || tr.ShareApplications > g.np {
						t.Errorf("seed %d: %d key-share applications, want between τ = %d and np = %d", s, tr.ShareApplications, g.tau, g.np)
					}
					apps += tr.ShareApplications
					worstDiss, worstDec = max(worstDiss, tr.DissCycles), max(worstDec, tr.DecryptCycles)
				}
				t.Logf("%d seeds: %.1f key-share applications a run, worst %d/%d cycles", seeds, float64(apps)/float64(seeds), worstDiss, worstDec)
			})
		}
	}
}
