package core

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/sim"
	"chiaroscuro/internal/timeseries"
)

// TestPhaseCyclesValues pins the derivation at the populations the
// benchmark and the soak smokes run.
func TestPhaseCyclesValues(t *testing.T) {
	for _, c := range []struct {
		np, tau   int
		loss      float64
		newscast  bool
		diss, dec int
	}{
		{12, 4, 0, false, 7, 4},
		{16, 5, 0, false, 7, 5},
		{400, 9, 0, false, 10, 6},
		{400, 9, 0, true, 11, 6},
		{16, 5, 0.5, false, 31, 29},
		{2, 2, 0, false, 5, 4},
	} {
		diss, dec := PhaseCycles(c.np, c.tau, c.loss, c.newscast)
		if diss != c.diss || dec != c.dec {
			t.Errorf("PhaseCycles(%d, %d, %v, %v) = %d/%d, want %d/%d",
				c.np, c.tau, c.loss, c.newscast, diss, dec, c.diss, c.dec)
		}
	}
}

// gridPoint is one population shape of the validation grid.
type gridPoint struct {
	np, tau  int
	churn    float64
	newscast bool
}

func (g gridPoint) String() string {
	sampler := "uniform"
	if g.newscast {
		sampler = "newscast"
	}
	return fmt.Sprintf("n%d/tau%d/churn%v/%s", g.np, g.tau, g.churn, sampler)
}

// validationGrid is every point TestPhaseCyclesCoverAdaptiveSimulator
// checks: n × τ ∈ {2, 5, ⌈n/3⌉} (plus τ = n for n ≤ 16) × Fig. 3's
// churn rates × both peer samplers.
func validationGrid(sizes []int) []gridPoint {
	var grid []gridPoint
	for _, np := range sizes {
		taus := []int{2, 5, (np + 2) / 3}
		if np <= 16 {
			taus = append(taus, np)
		}
		seen := map[int]bool{}
		for _, tau := range taus {
			if tau > np || seen[tau] {
				continue
			}
			seen[tau] = true
			for _, churn := range []float64{0, 0.1, 0.25, 0.5} {
				for _, newscast := range []bool{false, true} {
					grid = append(grid, gridPoint{np, tau, churn, newscast})
				}
			}
		}
	}
	return grid
}

// seedsFor sizes the validation runs per point: at least 1,000 seeds up
// to 30 participants, fewer above, so the whole grid runs in under a
// minute on two cores. -short and the race detector trim it.
func seedsFor(np int) int {
	n := 1000
	switch {
	case np > 100:
		n = 16
	case np > 30:
		n = 120
	}
	if testing.Short() || raceEnabled {
		n = max(n/20, 3)
	}
	return n
}

// oldPhaseCycles is the slack formula PhaseCycles replaced, kept here to
// show where it fell short.
func oldPhaseCycles(np int) (diss, dec int) {
	logN := bits.Len(uint(np))
	return 6 + 2*logN, 8 + 2*logN
}

// adaptiveLengths runs one iteration of the adaptive simulator — the
// real eesum.Participants over the plain scheme, one sum cycle — and
// returns how many cycles each phase took to finish, as its observer
// saw them. One sum cycle leaves most participants without weight, so
// the release that follows fails; it is not under test, and only a
// phase that hit its cap fails the point.
func adaptiveLengths(t *testing.T, g gridPoint, data *timeseries.Dataset, seed uint64) (diss, dec int) {
	sch, err := plain.New(nil, 8, g.np, g.tau)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(data, sch, Config{
		K: 1, InitCentroids: []timeseries.Series{{0}}, DMin: 0, DMax: 1,
		Epsilon: 1e4, MaxIterations: 1, Exchanges: 1, NoiseShares: 1,
		Churn: g.churn, MidFailure: g.churn > 0, Newscast: g.newscast,
		Seed: seed, Workers: 1,
		Observer: Observer{Phase: func(_ int, p Phase, cycle, _ int) {
			switch p {
			case PhaseDissemination:
				diss = cycle
			case PhaseDecryption:
				dec = cycle
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(); errors.Is(err, ErrPhaseBudget) {
		t.Fatalf("%v seed %d: %v", g, seed, err)
	}
	return diss, dec
}

// TestPhaseCyclesCoverAdaptiveSimulator validates PhaseCycles against the
// adaptive simulator: over the whole grid, no seed may need more than
// one cycle less than the derived length of either phase. It also
// counts the seeds the slack formula it replaced left unfinished.
func TestPhaseCyclesCoverAdaptiveSimulator(t *testing.T) {
	for _, g := range validationGrid([]int{6, 12, 16, 30, 100, 400}) {
		t.Run(g.String(), func(t *testing.T) {
			t.Parallel()
			data := timeseries.NewDataset(1)
			for i := 0; i < g.np; i++ {
				data.Append(timeseries.Series{float64(i % 2)})
			}
			diss, dec := PhaseCycles(g.np, g.tau, g.churn, g.newscast)
			oldDiss, oldDec := oldPhaseCycles(g.np)
			seeds := seedsFor(g.np)
			worstDiss, worstDec, oldShort := 0, 0, 0
			for s := 0; s < seeds; s++ {
				d, e := adaptiveLengths(t, g, data, uint64(s))
				worstDiss, worstDec = max(worstDiss, d), max(worstDec, e)
				if d > oldDiss || e > oldDec {
					oldShort++
				}
			}
			t.Logf("%d seeds: worst %d/%d cycles, derived %d/%d; old formula %d/%d short in %d seeds",
				seeds, worstDiss, worstDec, diss, dec, oldDiss, oldDec, oldShort)
			if worstDiss > diss-1 || worstDec > dec-1 {
				t.Errorf("a seed needed %d/%d cycles: the derived %d/%d leave no spare cycle", worstDiss, worstDec, diss, dec)
			}
		})
	}
}

// TestPhaseCyclesCoverCountingModel extends the grid to 2,000
// participants on the counting models of both phases — min-identifier
// spreading, and eesum.DecryptionLatency's exact share sets — driven by
// the engine's own schedule.
func TestPhaseCyclesCoverCountingModel(t *testing.T) {
	for _, g := range validationGrid([]int{2000}) {
		t.Run(g.String(), func(t *testing.T) {
			t.Parallel()
			diss, dec := PhaseCycles(g.np, g.tau, g.churn, g.newscast)
			seeds := 20
			if g.newscast {
				seeds = 2 // a Newscast cycle at this size costs milliseconds
			}
			if testing.Short() || raceEnabled {
				seeds = 1
			}
			worstDiss, worstDec := 0, 0
			for s := 0; s < seeds; s++ {
				d, e := countingLengths(t, g, uint64(s), 4*max(diss, dec))
				worstDiss, worstDec = max(worstDiss, d), max(worstDec, e)
			}
			t.Logf("%d seeds: worst %d/%d cycles, derived %d/%d", seeds, worstDiss, worstDec, diss, dec)
			if worstDiss > diss-1 || worstDec > dec-1 {
				t.Errorf("a seed needed %d/%d cycles: the derived %d/%d leave no spare cycle", worstDiss, worstDec, diss, dec)
			}
		})
	}
}

// TestDecryptionTailAtDeployedLengths runs the counting models
// (countingLengths: uniform sampling, no loss) at the populations the
// benchmark, the soaks and CI's daemons run, with enough seeds to see
// the tail the derived decryption length must hold at
// PhaseFailureBound. No seed may need more than the derived length; the
// histogram of the decryption cycles needed is logged.
func TestDecryptionTailAtDeployedLengths(t *testing.T) {
	for _, c := range []struct{ np, tau, seeds int }{
		{12, 4, 1_000_000},
		{16, 5, 1_000_000},
		{400, 9, 20_000},
		{2000, 5, 2_000},
		{2, 2, 1_000_000},
		{3, 2, 1_000_000},
	} {
		t.Run(fmt.Sprintf("n%d/tau%d", c.np, c.tau), func(t *testing.T) {
			t.Parallel()
			_, dec := PhaseCycles(c.np, c.tau, 0, false)
			seeds := c.seeds
			if testing.Short() || raceEnabled {
				seeds = max(seeds/200, 10)
			}
			hist := make([]int, 2*dec+1)
			for s := 0; s < seeds; s++ {
				_, dec := countingLengths(t, gridPoint{np: c.np, tau: c.tau}, uint64(s), len(hist)-1)
				hist[dec]++
			}
			t.Logf("%d seeds, derived %d cycles; seeds by cycles needed: %v", seeds, dec, hist)
			for cycles, n := range hist[dec+1:] {
				if n > 0 {
					t.Errorf("%d seeds needed %d cycles, more than the derived %d", n, dec+1+cycles, dec)
				}
			}
		})
	}
}

// minIDs is the counting model of the correction dissemination: every
// participant's proposal identifier, and the min-identifier rule.
type minIDs []uint64

func (m minIDs) Exchange(a, b sim.NodeID, full bool) {
	lo := min(m[a], m[b])
	m[a] = lo
	if full {
		m[b] = lo
	}
}

func (m minIDs) agreed() bool {
	for _, id := range m[1:] {
		if id != m[0] {
			return false
		}
	}
	return true
}

// countingLengths runs both counting models on one engine, the
// dissemination first and the decryption after it, as an iteration
// draws them, and returns the cycles each took (capped at limit).
func countingLengths(t *testing.T, g gridPoint, seed uint64, limit int) (diss, dec int) {
	var sampler sim.Sampler = &sim.UniformSampler{}
	if g.newscast {
		sampler = &sim.NewscastSampler{ViewSize: 30}
	}
	eng, err := sim.New(sim.Config{N: g.np, Seed: seed, Churn: g.churn, MidFailure: g.churn > 0, Workers: 1}, sampler)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(seed, 0x1D5)
	ids := make(minIDs, g.np)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	for ; diss < limit && !ids.agreed(); diss++ {
		eng.RunCycle(ids.Exchange)
	}
	dl, err := eesum.NewDecryptionLatency(g.np, g.tau, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	for ; dec < limit && dl.FractionDone() < 1; dec++ {
		eng.RunCycle(dl.Exchange)
	}
	return diss, dec
}
