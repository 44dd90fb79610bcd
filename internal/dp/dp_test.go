package dp

import (
	"math"
	"testing"
	"testing/quick"

	"chiaroscuro/internal/randx"
)

func TestSumSensitivityPaperValues(t *testing.T) {
	// Section 6.1.1: CER sensitivity 1920, NUMED 1000.
	if got := SumSensitivity(24, 0, 80); got != 1920 {
		t.Errorf("CER sensitivity = %v, want 1920", got)
	}
	if got := SumSensitivity(20, 0, 50); got != 1000 {
		t.Errorf("NUMED sensitivity = %v, want 1000", got)
	}
	if got := SumSensitivity(10, -5, 3); got != 50 {
		t.Errorf("negative-range sensitivity = %v, want 50", got)
	}
}

func TestTheorem3PaperExample(t *testing.T) {
	// Appendix B: δ=0.995, emax=1e-12, s²=1, n_it^max=10, np=1e6, n=24
	// ⇒ δ_atom = 480√0.995 ≈ 1-1e-5 ⇒ ne = 47 exchanges.
	nReleased := 10 * 2 * 24 // n_it^max * 2n (the paper's δ^(1/(nmax*2n)))
	dAtom := DeltaAtom(0.995, nReleased)
	if math.Abs(dAtom-(1-1.044e-5)) > 1e-6 {
		t.Errorf("delta_atom = %v, want ~1-1e-5", dAtom)
	}
	// The worked example plugs ι = 1-δ_atom straight into Theorem 3.
	ne := Theorem3Exchanges(1_000_000, 1, 1e-12, 1-dAtom)
	if ne != 47 {
		t.Errorf("Theorem 3 exchanges = %d, paper says 47", ne)
	}
	// The stricter Lemma 2 relation δ_atom=(1-ι)² costs at most one more.
	neStrict := Theorem3Exchanges(1_000_000, 1, 1e-12, iotaForDelta(dAtom))
	if neStrict < ne || neStrict > ne+1 {
		t.Errorf("strict ne = %d, want %d or %d", neStrict, ne, ne+1)
	}
}

func TestTheorem3Monotonicity(t *testing.T) {
	base := Theorem3Exchanges(1000, 1, 1e-3, 0.01)
	if Theorem3Exchanges(1_000_000, 1, 1e-3, 0.01) <= base {
		t.Error("ne should grow with population")
	}
	if Theorem3Exchanges(1000, 1, 1e-9, 0.01) <= base {
		t.Error("ne should grow as emax shrinks")
	}
	if Theorem3Exchanges(1000, 1, 1e-3, 1e-6) <= base {
		t.Error("ne should grow as iota shrinks")
	}
	// Logarithmic growth: doubling np adds O(1) exchanges.
	d := Theorem3Exchanges(2_000_000, 1, 1e-3, 0.01) - Theorem3Exchanges(1_000_000, 1, 1e-3, 0.01)
	if d > 2 {
		t.Errorf("doubling np added %d exchanges, want <= 2 (log growth)", d)
	}
}

func TestGreedyBudget(t *testing.T) {
	g := Greedy{Eps: 0.69}
	if e := g.Epsilon(1); math.Abs(e-0.345) > 1e-12 {
		t.Errorf("G iteration 1 = %v, want 0.345", e)
	}
	if e := g.Epsilon(2); math.Abs(e-0.1725) > 1e-12 {
		t.Errorf("G iteration 2 = %v, want 0.1725", e)
	}
	if g.Epsilon(0) != 0 || g.Epsilon(1000) != 0 {
		t.Error("out-of-range iterations must cost 0")
	}
}

func TestGreedyFloorBudget(t *testing.T) {
	gf := GreedyFloor{Eps: 0.8, Floor: 4}
	// Iterations 1..4 each get ε/8 = 0.1; 5..8 each get ε/16 = 0.05.
	for it := 1; it <= 4; it++ {
		if e := gf.Epsilon(it); math.Abs(e-0.1) > 1e-12 {
			t.Errorf("GF iteration %d = %v, want 0.1", it, e)
		}
	}
	for it := 5; it <= 8; it++ {
		if e := gf.Epsilon(it); math.Abs(e-0.05) > 1e-12 {
			t.Errorf("GF iteration %d = %v, want 0.05", it, e)
		}
	}
}

func TestUniformFastBudget(t *testing.T) {
	uf := UniformFast{Eps: 0.5, Limit: 5}
	for it := 1; it <= 5; it++ {
		if e := uf.Epsilon(it); math.Abs(e-0.1) > 1e-12 {
			t.Errorf("UF iteration %d = %v, want 0.1", it, e)
		}
	}
	if uf.Epsilon(6) != 0 {
		t.Error("UF beyond limit must cost 0")
	}
	if uf.MaxIterations() != 5 {
		t.Error("UF MaxIterations")
	}
}

// TestBudgetNeverExceedsEps is the core privacy invariant of Section 5.1:
// whatever the strategy and horizon, total spend stays within ε.
func TestBudgetNeverExceedsEps(t *testing.T) {
	const eps = 0.69
	strategies := []Budget{
		Greedy{Eps: eps},
		GreedyFloor{Eps: eps, Floor: 4},
		GreedyFloor{Eps: eps, Floor: 1},
		UniformFast{Eps: eps, Limit: 5},
		UniformFast{Eps: eps, Limit: 10},
	}
	for _, s := range strategies {
		for _, horizon := range []int{1, 5, 10, 100, 1000} {
			if total := TotalSpent(s, horizon); total > eps*(1+1e-9) {
				t.Errorf("%s over %d iterations spends %v > ε=%v", s.Name(), horizon, total, eps)
			}
		}
	}
}

func TestNewBudget(t *testing.T) {
	if _, err := NewBudget("G", 1, 0); err != nil {
		t.Error(err)
	}
	if _, err := NewBudget("GF", 1, 4); err != nil {
		t.Error(err)
	}
	if _, err := NewBudget("GF", 1, 0); err == nil {
		t.Error("GF with no floor should fail")
	}
	if _, err := NewBudget("UF", 1, 0); err == nil {
		t.Error("UF with no limit should fail")
	}
	if _, err := NewBudget("bogus", 1, 0); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestAccountant(t *testing.T) {
	a := &Accountant{Cap: 1.0}
	if err := a.Spend(0.6); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.39); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.1); err == nil {
		t.Error("overspend must fail")
	}
	if err := a.Spend(-1); err == nil {
		t.Error("negative spend must fail")
	}
	if math.Abs(a.Spent()-0.99) > 1e-12 {
		t.Errorf("Spent = %v", a.Spent())
	}
}

func TestAccountantWithStrategyQuick(t *testing.T) {
	// Any strategy driven through the accountant never errors.
	f := func(name uint8, horizon uint8) bool {
		var b Budget
		switch name % 3 {
		case 0:
			b = Greedy{Eps: 0.69}
		case 1:
			b = GreedyFloor{Eps: 0.69, Floor: 4}
		default:
			b = UniformFast{Eps: 0.69, Limit: 10}
		}
		a := &Accountant{Cap: 0.69}
		for it := 1; it <= int(horizon%64)+1; it++ {
			if eps := b.Epsilon(it); eps > 0 {
				if err := a.Spend(eps); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMechanismPerturbSum(t *testing.T) {
	m := &Mechanism{Sensitivity: 1920, RNG: randx.New(1, 1)}
	const trials = 20000
	var sum2 float64
	for i := 0; i < trials; i++ {
		v := []float64{0}
		m.PerturbSum(v, 0.69)
		sum2 += v[0] * v[0]
	}
	lambda := 1920 / 0.69
	wantVar := 2 * lambda * lambda
	got := sum2 / trials
	if math.Abs(got-wantVar)/wantVar > 0.1 {
		t.Errorf("perturbation variance = %v, want ~%v", got, wantVar)
	}
}

func TestMechanismPerturbCount(t *testing.T) {
	m := &Mechanism{Sensitivity: 1920, RNG: randx.New(2, 2)}
	const trials = 20000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += m.PerturbCount(100, 0.69) - 100
	}
	if mean := sum / trials; math.Abs(mean) > 0.2 {
		t.Errorf("count noise mean = %v, want ~0", mean)
	}
}

func TestSplitIteration(t *testing.T) {
	s, c := SplitIteration(0.1, 0.5)
	if s != 0.05 || c != 0.05 {
		t.Errorf("even split = %v/%v", s, c)
	}
	s, c = SplitIteration(0.1, 0.8)
	if math.Abs(s-0.08) > 1e-12 || math.Abs(c-0.02) > 1e-12 {
		t.Errorf("80/20 split = %v/%v", s, c)
	}
	s, c = SplitIteration(0.1, 0) // invalid share falls back to even
	if s != 0.05 || c != 0.05 {
		t.Errorf("fallback split = %v/%v", s, c)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("LaplaceScale eps<=0", func() { LaplaceScale(1, 0) })
	mustPanic("Theorem3 bad iota", func() { Theorem3Exchanges(10, 1, 0.1, 0) })
	mustPanic("DeltaAtom bad delta", func() { DeltaAtom(0, 1) })
	mustPanic("iotaForDelta bad", func() { iotaForDelta(0) })
}

// iotaForDelta inverts δ_atom = (1-ι)² (Lemma 2): the per-gossip-run
// failure probability allowed for a target per-value δ_atom.
func iotaForDelta(deltaAtom float64) float64 {
	if deltaAtom <= 0 || deltaAtom > 1 {
		panic("dp: deltaAtom must be in (0,1]")
	}
	return 1 - math.Sqrt(deltaAtom)
}
