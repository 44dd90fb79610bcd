// Package kmeans implements the centralized Lloyd k-means algorithm of
// Section 3.1 of the paper, together with the inertia quality measures of
// Definition 1. It is both the non-private baseline ("No perturbation" in
// Figures 2–3) and the computational core reused by the perturbed variant
// in package dpkmeans.
//
// Loop, Algorithm 1 written once, drives every mode over its own release
// source: Run's exact means, dpkmeans' Laplace-perturbed ones, a
// core.Network iteration, a networked node's.
package kmeans

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"

	"chiaroscuro/internal/timeseries"
)

// ErrNoCentroids is returned when a step is asked to run with no centroids.
var ErrNoCentroids = errors.New("kmeans: no centroids")

// Assignment is the result of one assignment step: for each cluster, the
// dimension-wise sum of its members, the member count, and the total
// squared distance of members to their centroid (pre-perturbation
// intra-cluster inertia numerator).
type Assignment struct {
	Sums   []timeseries.Series // k × n cluster sums
	Counts []int64             // k cluster cardinalities
	SqSums []float64           // k per-cluster Σ ||s||² (enables closed-form inertias)
	SSE    float64             // Σ over series of squared distance to closest centroid
}

// assignBlock is how many rows Assign sums into one partial before
// adding it into the result. A fixed block makes the float reduction's
// order — rows in order within a block, blocks in order — the same at
// every core count.
const assignBlock = 4096

// Assign performs the assignment step: each series of d goes to its
// closest centroid. Blocks of assignBlock rows are summed into partials
// on up to GOMAXPROCS workers, and every block's partial is added into
// the result in block order (blockOrder), so the result is
// bit-identical at every core count. It never mutates the centroids.
// An empty centroid set returns ErrNoCentroids.
func Assign(d *timeseries.Dataset, centroids []timeseries.Series) (*Assignment, error) {
	k, n := len(centroids), d.Dim()
	if k == 0 {
		return nil, ErrNoCentroids
	}
	blocks := (d.Len() + assignBlock - 1) / assignBlock
	workers := min(runtime.GOMAXPROCS(0), blocks)
	o := &blockOrder{out: newAssignment(k, n), ring: make([]*Assignment, 2*workers), free: takePartials(k, n, 2*workers)}
	o.freed = sync.NewCond(&o.mu)
	var wg sync.WaitGroup
	for w := workers; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p, b := o.claim(blocks); p != nil; p, b = o.claim(blocks) {
				p.reset()
				p.assign(d, centroids, b*assignBlock, min((b+1)*assignBlock, d.Len()))
				o.finish(b, p)
			}
		}()
	}
	wg.Wait()
	keepPartials(o.free)
	return o.out, nil
}

// blockOrder adds Assign's block partials into the result in block
// order without making a worker wait for its own block's turn: a
// finished block waits in the ring instead, and whoever finishes the
// next block in order adds it and every finished block after it. A
// worker takes a free partial before it claims a block, and there are
// len(ring) partials, so every claimed block not yet added has a ring
// slot of its own: block mod len(ring).
type blockOrder struct {
	mu    sync.Mutex
	freed *sync.Cond // a partial went back to free
	out   *Assignment
	ring  []*Assignment // finished blocks waiting for their turn
	free  []*Assignment // partials not in use
	next  int           // blocks claimed
	added int           // blocks added into out
}

// claim returns a free partial and the block to sum into it, or nil
// once every block is claimed. It waits only while every partial is in
// use.
func (o *blockOrder) claim(blocks int) (*Assignment, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.free) == 0 && o.next < blocks {
		o.freed.Wait()
	}
	if o.next == blocks {
		return nil, 0
	}
	p := o.free[len(o.free)-1]
	o.free = o.free[:len(o.free)-1]
	o.next++
	return p, o.next - 1
}

// finish hands in block b's partial: into the ring, unless b is next
// in order, in which case the caller adds it and the finished blocks
// that follow it, outside the lock, and frees their partials.
func (o *blockOrder) finish(b int, p *Assignment) {
	o.mu.Lock()
	if b != o.added {
		o.ring[b%len(o.ring)] = p
		o.mu.Unlock()
		return
	}
	for p != nil {
		o.mu.Unlock()
		o.out.add(p)
		o.mu.Lock()
		o.added++
		o.free = append(o.free, p)
		o.freed.Broadcast()
		i := o.added % len(o.ring)
		p, o.ring[i] = o.ring[i], nil
	}
	o.mu.Unlock()
}

// kept holds Assign's partials across calls, under a mutex rather than
// in a sync.Pool: a pool is emptied by every collection, and the
// benchmark collects between jobs.
var kept struct {
	sync.Mutex
	parts []*Assignment
}

// takePartials returns m partials for k centroids of n points, kept
// ones first. A kept partial serves any k up to the one it was built
// for, resliced (a run's k only shrinks, as Compact drops lost means);
// one too small or of another series length is dropped.
func takePartials(k, n, m int) []*Assignment {
	parts := make([]*Assignment, 0, m)
	kept.Lock()
	for len(kept.parts) > 0 && len(parts) < m {
		p := kept.parts[len(kept.parts)-1]
		kept.parts = kept.parts[:len(kept.parts)-1]
		if cap(p.Sums) >= k && len(p.Sums[:1][0]) == n {
			p.Sums, p.Counts, p.SqSums = p.Sums[:k], p.Counts[:k], p.SqSums[:k]
			parts = append(parts, p)
		}
	}
	kept.Unlock()
	for len(parts) < m {
		parts = append(parts, newAssignment(k, n))
	}
	return parts
}

// keepPartials keeps a call's partials for the next.
func keepPartials(parts []*Assignment) {
	kept.Lock()
	kept.parts = append(kept.parts, parts...)
	kept.Unlock()
}

// newAssignment returns a zero assignment to k centroids of n points.
func newAssignment(k, n int) *Assignment {
	a := &Assignment{
		Sums:   make([]timeseries.Series, k),
		Counts: make([]int64, k),
		SqSums: make([]float64, k),
	}
	for c := range a.Sums {
		a.Sums[c] = make(timeseries.Series, n)
	}
	return a
}

// reset zeroes a for the next block.
func (a *Assignment) reset() {
	for c := range a.Sums {
		clear(a.Sums[c])
	}
	clear(a.Counts)
	clear(a.SqSums)
	a.SSE = 0
}

// assign adds rows [lo, hi) of d, each to its closest centroid.
func (a *Assignment) assign(d *timeseries.Dataset, centroids []timeseries.Series, lo, hi int) {
	var sse float64
	for i := lo; i < hi; i++ {
		row := d.Row(i)
		best, bestD2 := 0, math.Inf(1)
		for c, ctr := range centroids {
			d2 := row.Dist2(ctr)
			if d2 < bestD2 {
				best, bestD2 = c, d2
			}
		}
		a.Sums[best].Add(row)
		a.Counts[best]++
		var sq float64
		for _, v := range row {
			sq += v * v
		}
		a.SqSums[best] += sq
		sse += bestD2
	}
	a.SSE += sse
}

// add adds the partial p into a.
func (a *Assignment) add(p *Assignment) {
	for c := range a.Sums {
		a.Sums[c].Add(p.Sums[c])
		a.Counts[c] += p.Counts[c]
		a.SqSums[c] += p.SqSums[c]
	}
	a.SSE += p.SSE
}

// InertiaAgainst returns the mean squared distance of the assigned series
// to an arbitrary per-cluster representative set reps (same indexing as
// the assignment's clusters, nil entries skipped), keeping the partition
// fixed. With reps = Means() this is the pre-perturbation intra-cluster
// inertia; with perturbed means it is the paper's POST inertia "without
// re-assignment" (Figure 2(e)/(f)). Series in clusters whose rep is nil
// are excluded from both numerator and denominator.
func (a *Assignment) InertiaAgainst(reps []timeseries.Series) float64 {
	var sse float64
	var total int64
	for c, rep := range reps {
		if rep == nil || c >= len(a.Counts) || a.Counts[c] == 0 {
			continue
		}
		// Σ||s - r||² = Σ||s||² - 2 r·Σs + n_c ||r||²
		var dot, norm2 float64
		for j, v := range rep {
			dot += v * a.Sums[c][j]
			norm2 += v * v
		}
		sse += a.SqSums[c] - 2*dot + float64(a.Counts[c])*norm2
		total += a.Counts[c]
	}
	if total == 0 {
		return 0
	}
	return sse / float64(total)
}

// Means computes the candidate centroids ("means") from an assignment.
// Clusters with zero members produce a nil series: the paper's "lost"
// means, ignored de facto by subsequent iterations.
func (a *Assignment) Means() []timeseries.Series {
	means := make([]timeseries.Series, len(a.Sums))
	for c, sum := range a.Sums {
		if a.Counts[c] == 0 {
			continue
		}
		m := sum.Clone()
		m.Scale(1 / float64(a.Counts[c]))
		means[c] = m
	}
	return means
}

// IntraInertia returns the intra-cluster inertia q_intra of Definition 1
// for the assignment of d to centroids: the mean (over the t series) of
// the squared distance to the assigned centroid.
func IntraInertia(d *timeseries.Dataset, centroids []timeseries.Series) (float64, error) {
	live := Compact(centroids)
	a, err := Assign(d, live) // ErrNoCentroids when none is live
	if err != nil {
		return 0, err
	}
	return a.SSE / float64(d.Len()), nil
}

// Compact drops nil (lost) centroids, preserving order. A set with no
// nil entry comes back as is, not copied.
func Compact(centroids []timeseries.Series) []timeseries.Series {
	if !slices.ContainsFunc(centroids, func(c timeseries.Series) bool { return c == nil }) {
		return centroids
	}
	out := centroids[:0:0]
	for _, c := range centroids {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// MaxShift returns the largest Euclidean distance between corresponding
// centroids of two same-length sets, skipping pairs where either side is
// nil. It is the convergence measure of the convergence step.
func MaxShift(old, new []timeseries.Series) float64 {
	var max float64
	for i := range old {
		if i >= len(new) || old[i] == nil || new[i] == nil {
			continue
		}
		if d := old[i].Dist(new[i]); d > max {
			max = d
		}
	}
	return max
}

// Config parametrizes a centralized k-means run.
type Config struct {
	InitCentroids []timeseries.Series // C_init; required
	Threshold     float64             // θ convergence threshold on MaxShift
	MaxIterations int                 // n_it^max safety bound (Section 4.2.4)

	// OnIteration, when set, observes each iteration as it completes:
	// its stats and the (compacted) means it produced. It runs on the
	// clustering goroutine and must not mutate the means.
	OnIteration func(stats IterationStats, means []timeseries.Series)
}

// IterationStats records the quality trace of one iteration, mirroring
// what Figures 2(a)–2(d) plot.
type IterationStats struct {
	Iteration    int     // 1-based
	IntraInertia float64 // pre-update inertia of the centroids used for assignment
	Centroids    int     // number of live (non-lost) centroids used
	Shift        float64 // MaxShift between centroids and new means
}

// Result is the outcome of a k-means run.
type Result struct {
	Centroids []timeseries.Series // final means (lost clusters removed)
	Stats     []IterationStats
	Converged bool
}

// Run executes centralized k-means until convergence (MaxShift <= θ) or
// MaxIterations. It is correct in the paper's sense: it terminates and
// outputs at least one centroid (provided the dataset is non-empty and at
// least one initial centroid is given).
func Run(d *timeseries.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), d, cfg)
}

// RunContext is Run with cancellation: the context is checked between
// iterations and a cancelled run returns ctx.Err().
func RunContext(ctx context.Context, d *timeseries.Dataset, cfg Config) (*Result, error) {
	if d.Len() == 0 {
		return nil, errors.New("kmeans: empty dataset")
	}
	maxIt := cfg.MaxIterations
	if maxIt <= 0 {
		maxIt = 100
	}
	res := &Result{}
	// No live seed fails the first Assign with ErrNoCentroids.
	out, err := Loop{MaxIterations: maxIt, Threshold: cfg.Threshold}.Run(ctx, 1, Compact(cfg.InitCentroids),
		func(it int, cur []timeseries.Series, _ float64) ([]timeseries.Series, bool, error) {
			a, err := Assign(d, cur)
			if err != nil {
				return nil, false, err
			}
			means := Compact(a.Means())
			stats := IterationStats{
				Iteration:    it,
				IntraInertia: a.SSE / float64(d.Len()),
				Centroids:    len(cur),
				Shift:        MaxShift(cur, means),
			}
			res.Stats = append(res.Stats, stats)
			if cfg.OnIteration != nil {
				cfg.OnIteration(stats, means)
			}
			return means, false, nil
		})
	if err != nil {
		return nil, err
	}
	res.Centroids, res.Converged = out.Centroids, out.Converged
	return res, nil
}
