// Package dp implements the differential-privacy machinery of the paper:
// the Laplace mechanism calibrated to the time-series Sum sensitivity
// (Definition 4), divisible noise-shares (Definition 5 / Lemma 1), the
// (ε,δ)-probabilistic relaxation with its gossip-error compensation
// (Lemma 2 and Lemma 3), the Newscast exchange bound (Theorem 3), and
// the privacy-budget concentration strategies of Section 5.1.
package dp

import (
	"errors"
	"fmt"
	"math"

	"chiaroscuro/internal/randx"
)

// SumSensitivity returns the L1 sensitivity of the time-series Sum
// aggregate of Definition 4: n * max(|dmin|, |dmax|), where n is the
// series length and [dmin, dmax] the per-measure range. For the CER
// dataset this is 24*80 = 1920, for NUMED 20*50 = 1000 — the values
// quoted in Section 6.1.1.
func SumSensitivity(n int, dmin, dmax float64) float64 {
	return float64(n) * math.Max(math.Abs(dmin), math.Abs(dmax))
}

// LaplaceScale returns the Laplace scale λ for releasing an aggregate of
// the given sensitivity at privacy level epsilon.
func LaplaceScale(sensitivity, epsilon float64) float64 {
	if epsilon <= 0 {
		panic("dp: epsilon must be positive")
	}
	return sensitivity / epsilon
}

// Theorem3Exchanges returns the minimum number of gossip exchanges per
// participant that Newscast needs so that, with probability 1-iota, every
// node's sum estimate is within emax of the exact value (Theorem 3, from
// Kowalczyk & Vlassis):
//
//	ne = ⌈0.581 (log np + 2 log s + 2 log 1/emax + log 1/iota)⌉
//
// Logs are natural. np is the population size, s² the data variance.
func Theorem3Exchanges(np int, s2, emax, iota float64) int {
	if np < 1 || emax <= 0 || iota <= 0 || iota >= 1 || s2 <= 0 {
		panic("dp: invalid Theorem 3 parameters")
	}
	s := math.Sqrt(s2)
	ne := 0.581 * (math.Log(float64(np)) + 2*math.Log(s) + 2*math.Log(1/emax) + math.Log(1/iota))
	return int(math.Ceil(ne))
}

// DeltaAtom returns the per-released-value probability δ_atom such that
// n_released values, each (ε_i, δ_atom)-probabilistically private, compose
// to the global δ: δ_atom = δ^(1/nReleased) (Appendix B.1.1).
func DeltaAtom(delta float64, nReleased int) float64 {
	if delta <= 0 || delta > 1 || nReleased < 1 {
		panic("dp: invalid DeltaAtom parameters")
	}
	return math.Pow(delta, 1/float64(nReleased))
}

// Budget distributes a global privacy budget ε over k-means iterations.
// Implementations must never allocate more than ε in total (the paper's
// privacy-budget constraint).
type Budget interface {
	// Epsilon returns the budget assigned to iteration it (1-based).
	// A return of 0 means the iteration must not release anything
	// (run out of budget / past the iteration cap).
	Epsilon(it int) float64
	// MaxIterations returns the hard iteration cap the strategy implies
	// (0 = no cap beyond the caller's own n_it^max).
	MaxIterations() int
	// Name returns the paper's short name (G, GF, UF).
	Name() string
}

// Greedy is the GREEDY (G) strategy: iteration i receives ε/2^i, so the
// total spent is bounded by ε.
type Greedy struct{ Eps float64 }

// Epsilon implements Budget.
func (g Greedy) Epsilon(it int) float64 {
	if it < 1 || it > 62 {
		return 0
	}
	return g.Eps / math.Pow(2, float64(it))
}

// MaxIterations implements Budget.
func (g Greedy) MaxIterations() int { return 0 }

// Name implements Budget.
func (g Greedy) Name() string { return "G" }

// GreedyFloor is the GREEDY_FLOOR (GF) strategy: GREEDY assignments are
// spread over floors of f iterations; iterations 1..f each get ε/(2f),
// iterations f+1..2f each get ε/(4f), and so on.
type GreedyFloor struct {
	Eps   float64
	Floor int // f, floor size (the paper uses 4)
}

// Epsilon implements Budget.
func (g GreedyFloor) Epsilon(it int) float64 {
	if it < 1 || g.Floor < 1 {
		return 0
	}
	floor := (it-1)/g.Floor + 1 // 1-based floor index
	if floor > 62 {
		return 0
	}
	return g.Eps / (math.Pow(2, float64(floor)) * float64(g.Floor))
}

// MaxIterations implements Budget.
func (g GreedyFloor) MaxIterations() int { return 0 }

// Name implements Budget.
func (g GreedyFloor) Name() string { return "GF" }

// UniformFast is the UNIFORM_FAST (UF) strategy: the budget is spread
// uniformly over a strongly limited number of iterations (the paper uses
// 5 and 10), after which releases stop.
type UniformFast struct {
	Eps   float64
	Limit int // hard iteration cap
}

// Epsilon implements Budget.
func (u UniformFast) Epsilon(it int) float64 {
	if it < 1 || it > u.Limit || u.Limit < 1 {
		return 0
	}
	return u.Eps / float64(u.Limit)
}

// MaxIterations implements Budget.
func (u UniformFast) MaxIterations() int { return u.Limit }

// Name implements Budget.
func (u UniformFast) Name() string { return "UF" }

// NewBudget builds a strategy by paper name: "G", "GF" (needs floor) or
// "UF" (needs limit).
func NewBudget(name string, eps float64, param int) (Budget, error) {
	switch name {
	case "G":
		return Greedy{Eps: eps}, nil
	case "GF":
		if param < 1 {
			return nil, errors.New("dp: GF needs a positive floor size")
		}
		return GreedyFloor{Eps: eps, Floor: param}, nil
	case "UF":
		if param < 1 {
			return nil, errors.New("dp: UF needs a positive iteration limit")
		}
		return UniformFast{Eps: eps, Limit: param}, nil
	}
	return nil, fmt.Errorf("dp: unknown budget strategy %q (want G, GF or UF)", name)
}

// TotalSpent sums the budget a strategy would spend over maxIt iterations.
func TotalSpent(b Budget, maxIt int) float64 {
	var total float64
	for it := 1; it <= maxIt; it++ {
		total += b.Epsilon(it)
	}
	return total
}

// Accountant tracks cumulative ε spending and enforces the global cap.
// The clustering loop (kmeans.Loop) charges every release to one, so a
// buggy strategy can never silently overrun the budget.
type Accountant struct {
	Cap   float64
	spent float64
}

// Check returns the error Spend(eps) would, without spending: check
// before a release, spend once something was released.
func (a *Accountant) Check(eps float64) error {
	if eps < 0 {
		return errors.New("dp: negative spend")
	}
	if a.spent+eps > a.Cap*(1+1e-9) {
		return fmt.Errorf("dp: budget exceeded: spent %.6g + %.6g > cap %.6g", a.spent, eps, a.Cap)
	}
	return nil
}

// Spend consumes eps from the budget; it returns an error if the cap
// would be exceeded (beyond a tiny float tolerance).
func (a *Accountant) Spend(eps float64) error {
	if err := a.Check(eps); err != nil {
		return err
	}
	a.spent += eps
	return nil
}

// Spent returns the cumulative ε consumed so far.
func (a *Accountant) Spent() float64 { return a.spent }

// Mechanism perturbs aggregates with Laplace noise. SumEps and CountEps
// are the per-iteration budget split between the k sum vectors and the k
// counts (disjoint clusters compose in parallel, so one cluster's budget
// covers all k).
type Mechanism struct {
	Sensitivity float64 // Sum sensitivity (Definition 4)
	RNG         *randx.RNG
}

// PerturbSum adds i.i.d. Laplace(sensitivity/eps) noise to every measure
// of sum, in place.
func (m *Mechanism) PerturbSum(sum []float64, eps float64) {
	lambda := LaplaceScale(m.Sensitivity, eps)
	for i := range sum {
		sum[i] += m.RNG.Laplace(lambda)
	}
}

// PerturbCount adds Laplace(1/eps) noise to a cluster cardinality
// (count sensitivity is 1) and returns the perturbed value.
func (m *Mechanism) PerturbCount(count float64, eps float64) float64 {
	return count + m.RNG.Laplace(1/eps)
}

// SplitIteration splits an iteration budget between the sum release and
// the count release. The paper perturbs both parts of each mean; we use
// an even split by default (sumShare = 0.5). Returns (εsum, εcount).
func SplitIteration(epsIter, sumShare float64) (float64, float64) {
	if sumShare <= 0 || sumShare >= 1 {
		sumShare = 0.5
	}
	return epsIter * sumShare, epsIter * (1 - sumShare)
}
