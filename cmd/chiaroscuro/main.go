// Command chiaroscuro runs a privacy-preserving clustering end to end
// through the unified Job API, streaming each iteration's released
// centroids as the protocol decrypts them.
//
// Four modes mirror the library's Job modes:
//
//	chiaroscuro -mode baseline   # centralized k-means, no privacy
//	chiaroscuro -mode dp         # centralized with DP release (quality path)
//	chiaroscuro -mode network    # full distributed protocol (simulated population)
//	chiaroscuro -mode networked  # same protocol over real loopback TCP
//
// Data comes either from a CSV file (one series per row, with its
// measure range given by -dmin and -dmax) or from the built-in
// generators (-dataset cer|numed).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"chiaroscuro"
	"chiaroscuro/internal/cmdinput"
	"chiaroscuro/internal/dp"
)

func main() {
	var (
		mode    = flag.String("mode", "dp", "baseline, dp, network, or networked")
		dataset = flag.String("dataset", "cer", "built-in generator: cer or numed")
		csvPath = flag.String("csv", "", "CSV file with one series per row (overrides -dataset)")
		dmin    = flag.Float64("dmin", math.NaN(), "lowest measure the noise is calibrated to (required with -csv; default: the generator's)")
		dmax    = flag.Float64("dmax", math.NaN(), "highest measure the noise is calibrated to (required with -csv; default: the generator's)")
		size    = flag.Int("n", 20000, "number of series to generate")
		k       = flag.Int("k", 10, "number of clusters")
		eps     = flag.Float64("epsilon", math.Ln2, "total privacy budget")
		budget  = flag.String("budget", "G", "budget strategy: G, GF, UF")
		param   = flag.Int("budget-param", 4, "GF floor size or UF iteration limit")
		smooth  = flag.Bool("smooth", true, "SMA smoothing of perturbed means")
		maxIt   = flag.Int("iterations", 10, "maximum k-means iterations")
		churn   = flag.Float64("churn", 0, "disconnection probability")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		keyBits = flag.Int("keybits", 256, "Damgård–Jurik key size for the distributed modes (128/256/512/1024)")
		real    = flag.Bool("realcrypto", false, "network mode: real Damgård–Jurik instead of simulated encryption")
		quiet   = flag.Bool("quiet", false, "suppress the live per-iteration event stream")
	)
	flag.Parse()
	strategy, err := dp.NewBudget(*budget, *eps, *param)
	if err != nil {
		fatal(err)
	}

	data, lo, hi, kind, err := cmdinput.LoadData(*csvPath, *dataset, *size, *seed, *dmin, *dmax)
	if err != nil {
		fatal(err)
	}
	seeds := chiaroscuro.SeedCentroids(kind, *k, *seed+1)
	fmt.Printf("dataset: %d series × %d measures in [%g, %g]\n", data.Len(), data.Dim(), lo, hi)

	opts := chiaroscuro.Options{
		InitCentroids: seeds,
		K:             *k,
		DMin:          lo, DMax: hi,
		Epsilon:       *eps,
		Smooth:        *smooth,
		MaxIterations: *maxIt,
		Churn:         *churn,
		Seed:          *seed,
	}
	title := ""
	switch *mode {
	case "baseline":
		opts.Mode = chiaroscuro.Centralized
		opts.Epsilon, opts.Churn = 0, 0
		title = "centralized k-means (no privacy)"

	case "dp":
		opts.Mode = chiaroscuro.CentralizedDP
		opts.Budget = strategy
		title = fmt.Sprintf("perturbed k-means (%s, ε=%.3f)", *budget, *eps)

	case "network", "networked":
		if data.Len() > 512 {
			fatal(fmt.Errorf("the distributed modes simulate one participant per series; use -n <= 512 (got %d)", data.Len()))
		}
		opts.Budget = strategy
		if *real || *mode == "networked" {
			opts.Scheme, err = chiaroscuro.NewTestScheme(*keyBits, 3, data.Len(), max(2, data.Len()/4))
		} else {
			opts.Scheme, err = chiaroscuro.NewSimulationScheme(*keyBits/4, data.Len(), max(2, data.Len()/4))
		}
		if err != nil {
			fatal(err)
		}
		if *mode == "networked" {
			opts.Mode = chiaroscuro.Networked
			title = "distributed protocol (real loopback TCP)"
		} else {
			opts.Mode = chiaroscuro.Simulated
			opts.TraceQuality = true
			title = "distributed protocol (simulated population)"
		}

	default:
		fatal(fmt.Errorf("unknown mode %q (want baseline, dp, network, or networked)", *mode))
	}

	job, err := chiaroscuro.NewJob(data, opts)
	if err != nil {
		fatal(err)
	}
	var res *chiaroscuro.Result
	if *quiet {
		// No subscription at all: a silent run keeps the zero-cost
		// no-subscriber emission path.
		res, err = job.Run(context.Background())
	} else {
		// Stream the per-iteration releases live — the Diptych discloses
		// one cleartext centroid set per iteration by design; show them
		// as they happen instead of after the whole run.
		events := job.Events()
		go job.Run(context.Background())
		for ev := range events {
			if rel, ok := ev.(chiaroscuro.IterationReleased); ok {
				fmt.Printf("released iteration %d: %d centroids (ε %.4f)\n",
					rel.Iteration, len(rel.Centroids), rel.EpsilonSpent)
			}
		}
		res, err = job.Wait()
	}
	if err != nil {
		fatal(err)
	}

	fmt.Println(title)
	switch opts.Mode {
	case chiaroscuro.Centralized, chiaroscuro.CentralizedDP:
		printStats(res)
	default:
		printTraces(res)
	}
}

func printStats(res *chiaroscuro.Result) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "iter\tinertia\tpost-inertia\tcentroids\tε spent")
	for _, s := range res.Stats {
		fmt.Fprintf(w, "%d\t%.4g\t%.4g\t%d\t%.4f\n",
			s.Iteration, s.Inertia, s.PostInertia, s.Centroids, s.EpsilonSpent)
	}
	w.Flush()
	fmt.Printf("final: %d centroids, converged=%v, ε spent %.4f\n",
		len(res.Centroids), res.Converged, res.TotalEpsilon)
}

func printTraces(res *chiaroscuro.Result) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "iter\tcentroids\tε spent\tsum cycles\tdecrypt cycles\tkey-shares applied\tinertia")
	for _, tr := range res.Traces {
		fmt.Fprintf(w, "%d\t%d→%d\t%.4f\t%d\t%d\t%d\t%.4g\n",
			tr.Iteration, tr.CentroidsIn, tr.CentroidsOut, tr.EpsilonSpent,
			tr.SumCycles, tr.DecryptCycles, tr.ShareApplications, tr.PreInertia)
	}
	w.Flush()
	fmt.Printf("final: %d centroids, ε spent %.4f, %.0f msgs/participant, %.1f kB/participant\n",
		len(res.Centroids), res.TotalEpsilon, res.AvgMessages, res.AvgBytes/1024)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chiaroscuro:", err)
	os.Exit(1)
}
