package chiaroscuro_test

import (
	"context"
	"fmt"
	"math"

	"chiaroscuro"
)

// One Job, one Options struct, four run modes: every run goes through
// NewJob.
func ExampleNewJob() {
	data, _ := chiaroscuro.GenerateCER(5000, 1)
	job, err := chiaroscuro.NewJob(data, chiaroscuro.Options{
		Mode:          chiaroscuro.CentralizedDP,
		InitCentroids: chiaroscuro.SeedCentroids("cer", 6, 2),
		Epsilon:       math.Ln2, // Budget defaults to Greedy(Epsilon)
		DMin:          chiaroscuro.CERMin,
		DMax:          chiaroscuro.CERMax,
		Smooth:        true,
		MaxIterations: 5,
		Seed:          3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := job.Run(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("iterations released: %d\n", len(res.History))
	fmt.Printf("budget respected: %v\n", res.TotalEpsilon <= math.Ln2*(1+1e-9))
	// Output:
	// iterations released: 5
	// budget respected: true
}

// Streaming a run: the Diptych releases a cleartext centroid set per
// iteration by design, and Events delivers each release as soon as the
// population decrypts it — here from a full distributed protocol run.
func ExampleJob_events() {
	data, _ := chiaroscuro.GenerateCER(48, 6)
	scheme, err := chiaroscuro.NewSimulationScheme(256, 48, 6)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	job, err := chiaroscuro.NewJob(data, chiaroscuro.Options{
		Mode:          chiaroscuro.Simulated,
		Scheme:        scheme,
		K:             3,
		InitCentroids: chiaroscuro.SeedCentroids("cer", 3, 7),
		DMin:          chiaroscuro.CERMin,
		DMax:          chiaroscuro.CERMax,
		Epsilon:       1e5, // demo population: gentle noise
		MaxIterations: 2,
		Exchanges:     20,
		Seed:          8,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// Subscribe before Run, consume while the run executes.
	events := job.Events()
	go job.Run(context.Background())
	for ev := range events {
		switch e := ev.(type) {
		case chiaroscuro.IterationReleased:
			fmt.Printf("iteration %d: %d centroids released (ε %.1f spent)\n",
				e.Iteration, len(e.Centroids), e.EpsilonSpent)
		case chiaroscuro.Done:
			fmt.Printf("done, err: %v\n", e.Err)
		}
	}
	// Output:
	// iteration 1: 3 centroids released (ε 50000.0 spent)
	// iteration 2: 3 centroids released (ε 25000.0 spent)
	// done, err: <nil>
}

// The non-private baseline: plain centralized k-means.
func ExampleNewJob_centralized() {
	data, _ := chiaroscuro.GenerateCER(5000, 1)
	job, err := chiaroscuro.NewJob(data, chiaroscuro.Options{
		Mode:          chiaroscuro.Centralized,
		InitCentroids: chiaroscuro.SeedCentroids("cer", 6, 2),
		MaxIterations: 8,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := job.Run(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("centroids: %d\n", len(res.Centroids))
	fmt.Printf("iterations: %d\n", len(res.Stats))
	// Output:
	// centroids: 6
	// iterations: 8
}

// Budget strategies never exceed their ε, whatever the horizon.
func ExampleBudget() {
	for _, b := range []chiaroscuro.Budget{
		chiaroscuro.Greedy(0.69),
		chiaroscuro.GreedyFloor(0.69, 4),
		chiaroscuro.UniformFast(0.69, 5),
	} {
		var total float64
		for it := 1; it <= 1000; it++ {
			total += b.Epsilon(it)
		}
		fmt.Printf("%s spends at most ε: %v\n", b.Name(), total <= 0.69+1e-12)
	}
	// Output:
	// G spends at most ε: true
	// GF spends at most ε: true
	// UF spends at most ε: true
}
