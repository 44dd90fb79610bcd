package kmeans

import (
	"context"

	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/timeseries"
)

// Release is one iteration of a release source: assign against cur,
// release the next centroids under epsIter (0 without a Budget). A nil
// next releases nothing: the iteration spends no ε and the run ends on
// cur. stop ends the run on next.
type Release func(it int, cur []timeseries.Series, epsIter float64) (next []timeseries.Series, stop bool, err error)

// Loop is Algorithm 1's iterate → release → terminate for every release
// source. It alone decides how many releases happen and what each costs.
type Loop struct {
	MaxIterations int            // n_it^max (Section 4.2.4); a Budget's own cap lowers it
	Threshold     float64        // θ on MaxShift; 0 stops at an exact fixpoint only
	Budget        dp.Budget      // ε per iteration (Section 5.1); nil releases cost nothing
	Acct          *dp.Accountant // the caller's, charged with every release
}

// Outcome is what a Loop run leaves.
type Outcome struct {
	Centroids []timeseries.Series // the last live release, lost (nil) entries removed
	Epsilon   float64             // ε this run spent
	Converged bool                // θ stopped the run
}

// Run iterates from iteration from; a resumed run passes its next
// iteration, its centroids and an Acct holding what it spent before. It
// stops at the cap, at a budget that assigns no ε, at a release with no
// live centroid (keeping the previous ones), at the source's stop, or at
// θ: as many live centroids as the input, none moved by more than
// Threshold. A cancelled ctx, a source error and an Acct that cannot
// afford the next release (checked before it) fail the run.
func (l Loop) Run(ctx context.Context, from int, cur []timeseries.Series, release Release) (Outcome, error) {
	maxIt := l.MaxIterations
	if l.Budget != nil && l.Budget.MaxIterations() > 0 {
		maxIt = min(maxIt, l.Budget.MaxIterations())
	}
	var out Outcome
	for it := from; it <= maxIt; it++ {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		var eps float64
		if l.Budget != nil {
			if eps = l.Budget.Epsilon(it); eps <= 0 {
				break // budget exhausted
			}
		}
		if l.Acct != nil {
			if err := l.Acct.Check(eps); err != nil {
				return Outcome{}, err
			}
		}
		next, stop, err := release(it, cur, eps)
		if err != nil {
			return Outcome{}, err
		}
		if next == nil {
			break // nothing released, nothing spent
		}
		if l.Acct != nil {
			_ = l.Acct.Spend(eps) // Check above: cannot fail
		}
		out.Epsilon += eps
		in, live := Compact(cur), Compact(next)
		if len(live) == 0 {
			break // every centroid lost: keep the previous ones
		}
		cur = next
		if stop || len(live) == len(in) && MaxShift(in, live) <= l.Threshold {
			out.Converged = !stop
			break
		}
	}
	out.Centroids = Compact(cur)
	return out, nil
}
