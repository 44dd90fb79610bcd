// Full protocol demo: a complete distributed Chiaroscuro run with REAL
// threshold Damgård–Jurik encryption — no trusted party anywhere. 48
// simulated devices, each holding one time-series and one key-share;
// gossip computes the encrypted sums, assembles the Laplace noise from
// per-device noise-shares, and decrypts with 12 distinct key-shares.
//
//	go run ./examples/fullprotocol
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"chiaroscuro"
)

func main() {
	const (
		devices  = 32
		clusters = 3
		tau      = 8 // key-shares needed to decrypt (τ of Table 1)
	)

	// Small synthetic load curves so the crypto-heavy demo stays snappy.
	data, _ := chiaroscuro.GenerateCER(devices, 99)
	seeds := chiaroscuro.SeedCentroids("cer", clusters, 100)

	// Real threshold Damgård–Jurik: degree s=3 gives the EESum enough
	// plaintext headroom at a 256-bit demo key (use >= 1024-bit keys and
	// GenerateKey-produced primes for anything resembling production).
	scheme, err := chiaroscuro.NewTestScheme(256, 3, devices, tau)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("devices: %d, clusters: %d, decryption threshold: %d key-shares\n",
		devices, clusters, tau)
	fmt.Println("running the full protocol (encrypted gossip sums + collaborative")
	fmt.Println("noise + epidemic threshold decryption)...")

	start := time.Now()
	job, err := chiaroscuro.NewJob(data, chiaroscuro.Options{
		Mode:          chiaroscuro.Simulated,
		Scheme:        scheme,
		K:             clusters,
		InitCentroids: seeds,
		DMin:          chiaroscuro.CERMin,
		DMax:          chiaroscuro.CERMax,
		// A 32-device demo needs a gentler noise level than the paper's
		// millions of participants: the noise magnitude is absolute while
		// the signal grows with the population.
		Epsilon:       math.Ln2 * 1000,
		MaxIterations: 2,
		Smooth:        true,
		Exchanges:     16,
		FracBits:      24,
		Seed:          101,
		TraceQuality:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Watch the protocol live: the event stream reports every completed
	// gossip cycle of each phase and every iteration's released (i.e.
	// threshold-decrypted) centroid set as it happens.
	events := job.Events()
	go job.Run(context.Background())
	var lastPhase chiaroscuro.Phase = -1
	for ev := range events {
		switch e := ev.(type) {
		case chiaroscuro.PhaseProgress:
			if e.Phase != lastPhase {
				if e.Of > 0 {
					fmt.Printf("  iteration %d: %s phase (%d cycles)\n", e.Iteration, e.Phase, e.Of)
				} else {
					fmt.Printf("  iteration %d: %s phase (adaptive)\n", e.Iteration, e.Phase)
				}
				lastPhase = e.Phase
			}
		case chiaroscuro.IterationReleased:
			fmt.Printf("  iteration %d: %d centroids decrypted and released, ε %.4f\n",
				e.Iteration, len(e.Centroids), e.EpsilonSpent)
		}
	}

	res, err := job.Wait()
	if err != nil {
		log.Fatal(err)
	}

	for _, tr := range res.Traces {
		fmt.Printf("  iteration %d: %d→%d centroids, ε %.4f, %d sum + %d decrypt cycles, %d key-shares applied\n",
			tr.Iteration, tr.CentroidsIn, tr.CentroidsOut, tr.EpsilonSpent,
			tr.SumCycles, tr.DecryptCycles, tr.ShareApplications)
	}
	fmt.Printf("\ndone in %v: %d centroids released, ε spent %.4f\n",
		time.Since(start).Round(time.Millisecond), len(res.Centroids), res.TotalEpsilon)
	fmt.Printf("gossip traffic: %.0f messages (%.0f kB) per device\n",
		res.AvgMessages, res.AvgBytes/1024)
	fmt.Println("\nevery value that crossed the (simulated) wire was either")
	fmt.Println("homomorphically encrypted, differentially private, or data-independent.")
}
