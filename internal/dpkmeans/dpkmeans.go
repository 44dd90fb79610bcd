// Package dpkmeans implements the perturbed k-means the paper uses for
// its quality evaluation (Section 6.1, item 2): a centralized k-means
// whose per-iteration cluster sums and counts are released through the
// Laplace mechanism under a budget-concentration strategy (Section 5.1),
// optionally smoothed by the circular moving average of Section 5.2, with
// aberrant ("lost") means removed as footnote 8 describes.
//
// This is numerically the same computation the distributed protocol in
// internal/core performs — there the sums travel encrypted and the noise
// is assembled from gossip noise-shares; here both are local, which lets
// the quality experiments run at the paper's scale (millions of series).
package dpkmeans

import (
	"context"
	"errors"
	"math"

	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// Config parametrizes a perturbed k-means run.
type Config struct {
	InitCentroids []timeseries.Series // C_init (data-independent seeds)
	Budget        dp.Budget           // ε concentration strategy; nil = no perturbation
	SumShare      float64             // fraction of each iteration's ε spent on sums (default 0.5)
	DMin, DMax    float64             // per-measure range (defines Sum sensitivity)
	Smooth        bool                // apply SMA smoothing to perturbed means (Section 5.2)
	MaxIterations int                 // n_it^max (paper: 10, or 5 for UF(5))
	Threshold     float64             // θ convergence threshold (0: stop only at an exact fixpoint)
	CountFloor    float64             // perturbed counts below this make the mean aberrant (default 1)
	RangeSlack    float64             // aberrant if a measure leaves [DMin-slack*R, DMax+slack*R] (default 1)
	Churn         float64             // per-iteration probability that a series is disconnected
	RNG           *randx.RNG          // required when Budget != nil or Churn > 0
	KeepHistory   bool                // retain the released centroids of every iteration

	// StopOnQualityDrop enables the smarter termination criterion of the
	// paper's footnote 9: participants monitor the inter-cluster inertia
	// (computable from the released perturbed means and counts plus the
	// once-and-for-all released global center of mass) and stop when it
	// drops for QualityPatience consecutive iterations — the moment the
	// noise becomes intractable.
	StopOnQualityDrop bool
	QualityPatience   int // consecutive drops tolerated (default 1)

	// OnIteration, when set, observes each iteration as it completes:
	// its stats and the (compacted) released centroids — the perturbed
	// means under a Budget, the exact means without one. It runs on the
	// clustering goroutine and must not mutate the centroids.
	OnIteration func(stats IterationStats, released []timeseries.Series)
}

// IterationStats is the per-iteration quality trace, matching what
// Figures 2(a)–2(d) and 3(a) plot.
type IterationStats struct {
	Iteration    int     // 1-based
	PreInertia   float64 // intra-cluster inertia of the *unperturbed* means on this iteration's partition
	PostInertia  float64 // same partition, perturbed (and smoothed) means, aberrant removed
	InterInertia float64 // inter-cluster inertia of the released means (the footnote-9 quality monitor)
	CentroidsIn  int     // live centroids used for the assignment
	CentroidsOut int     // centroids surviving perturbation + aberrant filter
	EpsilonSpent float64 // privacy budget consumed by this iteration
	ActiveSeries int     // series that participated (churn-aware)
}

// Result is the outcome of a perturbed k-means run.
type Result struct {
	Centroids    []timeseries.Series // final surviving (perturbed) centroids
	Stats        []IterationStats
	History      [][]timeseries.Series // per-iteration released centroids (Config.KeepHistory)
	TotalEpsilon float64               // total privacy budget consumed (≤ strategy's ε)
	Converged    bool
}

// BestIteration returns the 1-based iteration with the lowest
// pre-perturbation inertia, as used by Figures 2(e)/2(f), and its stats.
// Iterations whose released centroids all died (no POST measurable) are
// only chosen if no iteration kept a centroid. It returns (0, zero) if
// no iterations ran.
func (r *Result) BestIteration() (int, IterationStats) {
	best, bestQ := 0, math.Inf(1)
	for _, s := range r.Stats {
		if s.CentroidsOut == 0 {
			continue
		}
		if s.PreInertia < bestQ {
			best, bestQ = s.Iteration, s.PreInertia
		}
	}
	if best == 0 {
		for _, s := range r.Stats {
			if s.PreInertia < bestQ {
				best, bestQ = s.Iteration, s.PreInertia
			}
		}
	}
	if best == 0 {
		return 0, IterationStats{}
	}
	return best, r.Stats[best-1]
}

// Run executes the perturbed k-means over d.
func Run(d *timeseries.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), d, cfg)
}

// RunContext is Run with cancellation: the context is checked between
// iterations and a cancelled run returns ctx.Err().
func RunContext(ctx context.Context, d *timeseries.Dataset, cfg Config) (*Result, error) {
	if d.Len() == 0 {
		return nil, errors.New("dpkmeans: empty dataset")
	}
	centroids := kmeans.Compact(cfg.InitCentroids)
	if len(centroids) == 0 {
		return nil, kmeans.ErrNoCentroids
	}
	if (cfg.Budget != nil || cfg.Churn > 0) && cfg.RNG == nil {
		return nil, errors.New("dpkmeans: RNG required for perturbation or churn")
	}
	maxIt := cfg.MaxIterations
	if maxIt <= 0 {
		maxIt = 10
	}
	loop := kmeans.Loop{MaxIterations: maxIt, Threshold: cfg.Threshold, Budget: cfg.Budget}
	mech := &dp.Mechanism{
		Sensitivity: dp.SumSensitivity(d.Dim(), cfg.DMin, cfg.DMax),
		RNG:         cfg.RNG,
	}
	if cfg.Budget != nil {
		loop.Acct = &dp.Accountant{Cap: dp.TotalSpent(cfg.Budget, maxIt)}
	}

	res := &Result{}
	var globalCenter timeseries.Series
	if cfg.StopOnQualityDrop {
		// The protocol releases the global center of mass once, before the
		// clustering starts (footnote 9); here it is computed directly.
		globalCenter = d.Centroid()
	}
	patience := cfg.QualityPatience
	if patience <= 0 {
		patience = 1
	}
	var prevInter float64
	drops := 0
	out, err := loop.Run(ctx, 1, centroids, func(it int, cur []timeseries.Series, epsIter float64) ([]timeseries.Series, bool, error) {
		active := d
		if cfg.Churn > 0 {
			active = churnSubset(d, cfg.Churn, cfg.RNG)
			if active.Len() == 0 {
				return nil, false, nil // nobody left to release
			}
		}
		a, err := kmeans.Assign(active, cur)
		if err != nil {
			return nil, false, err
		}
		exactMeans := a.Means()
		pre := a.InertiaAgainst(exactMeans)

		stats := IterationStats{
			Iteration:    it,
			PreInertia:   pre,
			CentroidsIn:  len(cur),
			EpsilonSpent: epsIter,
			ActiveSeries: active.Len(),
		}

		var next []timeseries.Series
		if cfg.Budget == nil {
			next = kmeans.Compact(exactMeans)
			stats.PostInertia = pre
		} else {
			perturbed, pCounts := perturbMeans(a, mech, epsIter, cfg)
			stats.PostInertia = a.InertiaAgainst(perturbed)
			if cfg.StopOnQualityDrop {
				stats.InterInertia = interInertia(perturbed, pCounts, globalCenter)
			}
			next = kmeans.Compact(perturbed)
		}
		stats.CentroidsOut = len(next)
		res.Stats = append(res.Stats, stats)
		if cfg.OnIteration != nil {
			cfg.OnIteration(stats, next)
		}
		if cfg.KeepHistory {
			hist := make([]timeseries.Series, len(next))
			for i, c := range next {
				hist[i] = c.Clone()
			}
			res.History = append(res.History, hist)
		}
		if !cfg.StopOnQualityDrop || cfg.Budget == nil {
			return next, false, nil
		}
		// Footnote 9: stop once quality has dropped patience times in a
		// row — the noise is winning.
		if it > 1 && stats.InterInertia < prevInter {
			drops++
		} else {
			drops = 0
		}
		prevInter = stats.InterInertia
		return next, drops >= patience, nil
	})
	if err != nil {
		return nil, err
	}
	res.Centroids, res.TotalEpsilon, res.Converged = out.Centroids, out.Epsilon, out.Converged
	return res, nil
}

// interInertia is the footnote-9 quality monitor: the cardinality-
// weighted mean squared distance of the released means to the global
// center of mass. It uses only information the protocol discloses
// anyway: the perturbed means, the perturbed counts, and the
// once-released global centroid.
func interInertia(means []timeseries.Series, counts []float64, g timeseries.Series) float64 {
	var total float64
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	var q float64
	for i, m := range means {
		if m == nil || counts[i] <= 0 {
			continue
		}
		q += float64(counts[i] / total * m.Dist2(g))
	}
	return q
}

// perturbMeans releases the per-cluster (sum, count) pairs through the
// Laplace mechanism and the release filter (kmeans.Filter), mirroring
// lines 7–12 of Algorithm 3. It returns the released means and, for each
// surviving one, its perturbed count.
func perturbMeans(a *kmeans.Assignment, mech *dp.Mechanism, epsIter float64, cfg Config) ([]timeseries.Series, []float64) {
	epsSum, epsCount := dp.SplitIteration(epsIter, cfg.SumShare)
	countFloor, slack := cfg.CountFloor, cfg.RangeSlack
	if countFloor == 0 {
		countFloor = 1
	}
	if slack == 0 {
		slack = 1
	}
	k := len(a.Sums)
	var window int
	if cfg.Smooth {
		window = kmeans.SMAWindow(len(a.Sums[0]))
	}
	// Perturb even empty clusters: the protocol cannot know a cluster is
	// empty before decryption, and an empty cluster's perturbed mean is
	// exactly the "irrelevant value" footnote 8 predicts will be ignored
	// (the filter drops it).
	sums, counts := make([]timeseries.Series, k), make([]float64, k)
	for c := 0; c < k; c++ {
		sums[c] = a.Sums[c].Clone()
		mech.PerturbSum(sums[c], epsSum)
		counts[c] = mech.PerturbCount(float64(a.Counts[c]), epsCount)
	}
	out := kmeans.NewFilter(cfg.DMin, cfg.DMax, slack, countFloor, window).Means(sums, counts)
	for c, m := range out {
		if m == nil {
			counts[c] = 0
		}
	}
	return out, counts
}

// churnSubset samples the series that remain connected this iteration.
func churnSubset(d *timeseries.Dataset, churn float64, rng *randx.RNG) *timeseries.Dataset {
	keep := make([]int, 0, d.Len())
	for i := 0; i < d.Len(); i++ {
		if !rng.Bernoulli(churn) {
			keep = append(keep, i)
		}
	}
	return d.Subset(keep)
}
