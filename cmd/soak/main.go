// Command soak is the Chiaroscuro chaos soak driver: it runs an
// in-process networked population in a loop under a seeded fault plan —
// connection refusals, asymmetric partitions, mid-frame cuts, added
// latency, crash storms — plus the Section 6.1.5 churn model and a join
// flood per run, and reports sustained gossip cycles per second and
// wire bytes. Every fault decision derives from -seed, so a failing run
// replays exactly.
//
// A 30-second crash storm over 8 nodes with retries and suspicion:
//
//	soak -duration 30s -crash-prob 0.05 -churn 0.1 \
//	    -retries 3 -suspicion-k 4
//
// The restart storm: every peer keeps a durable crash-recovery journal
// and a supervisor kills random live peers mid-protocol, relaunching
// each from its journal (it rebinds its recorded address and rejoins
// with a Resume handshake). A 30-second storm:
//
//	soak -duration 30s -kill-prob 0.05 -retries 3 -suspicion-k 6 \
//	    -sim-scheme -tau 2 -iterations 3
//
// The paper-scale load shape: -vnodes runs the whole population as
// virtual nodes behind one mux listener (in-process connections, one
// schedule mirror), -sim-scheme swaps Damgård–Jurik for the arithmetic-faithful
// plaintext scheme so the run measures runtime capacity instead of
// exponentiation, and -shards splits the total population into
// independent sub-populations run back to back — each with a seed
// derived from (-seed, shard id), so any shard replays alone with
// -shards 1 -shard-offset ID. Two such processes sustain a combined
// 100k+ peers:
//
//	soak -vnodes -sim-scheme -population 25000 -shards 2 -tau 5 \
//	    -exchange-timeout 10m -duration 0 &
//	soak -vnodes -sim-scheme -population 25000 -shards 2 -shard-offset 2 \
//	    -tau 5 -exchange-timeout 10m -duration 0
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"chiaroscuro/internal/faultnet"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/soak"
)

func main() {
	var (
		n          = flag.Int("population", 8, "population size (per shard)")
		duration   = flag.Duration("duration", 30*time.Second, "soak wall-clock bound per shard (0 = one run)")
		seed       = flag.Uint64("seed", 1, "fault plan seed for run 0 (run r uses seed+r; shards derive per-shard seeds)")
		refuse     = flag.Float64("refuse-prob", 0, "per-dial connection refusal probability")
		partition  = flag.Float64("partition-prob", 0, "per directed pair asymmetric partition probability")
		cut        = flag.Float64("cut-prob", 0, "per-dial mid-frame connection cut probability")
		latency    = flag.Duration("latency-max", 0, "per-attempt added write latency bound")
		crash      = flag.Float64("crash-prob", 0, "per exchange-slot crash-at-leg probability")
		churn      = flag.Float64("churn", 0, "modeled churn probability per gossip cycle")
		retries    = flag.Int("retries", 0, "exchange retry budget per slot")
		backoff    = flag.Duration("backoff", 0, "initial retry backoff (0 = default when retries > 0)")
		suspicionK = flag.Int("suspicion-k", 0, "evict a peer after this many consecutive failures (0 = never)")
		iterations = flag.Int("iterations", 1, "protocol iterations per run")
		workers    = flag.Int("workers", 1, "crypto workers per node")
		vnodes     = flag.Bool("vnodes", false, "run the population as virtual nodes behind one mux listener")
		simScheme  = flag.Bool("sim-scheme", false, "use the plaintext simulation scheme (runtime capacity, not crypto throughput)")
		tau        = flag.Int("tau", 0, "decryption threshold override (0 = max(2, population/3))")
		exTimeout  = flag.Duration("exchange-timeout", 0, "per-exchange deadline override (0 = 2s; large -vnodes populations need minutes)")
		shards     = flag.Int("shards", 1, "independent sub-populations to run back to back in this process")
		shardOff   = flag.Int("shard-offset", 0, "global id of this process's first shard (for multi-process populations)")
		killProb   = flag.Float64("kill-prob", 0, "restart storm: per ~50ms tick probability of killing one random live peer and relaunching it from its journal (TCP shape only)")
		stateDir   = flag.String("state-dir", "", "directory for restart-storm crash-recovery journals (default: a temp dir)")
	)
	flag.Parse()

	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "soak: -shards must be at least 1")
		os.Exit(1)
	}
	total := &soak.Report{}
	for s := 0; s < *shards; s++ {
		shardID := *shardOff + s
		shardSeed := shardSeed(*seed, shardID)
		if *shards > 1 || *shardOff > 0 {
			fmt.Printf("soak: shard %d (population %d, seed %d)\n", shardID, *n, shardSeed)
		}
		rep, err := soak.Run(soak.Config{
			N:        *n,
			Duration: *duration,
			Plan: faultnet.Plan{
				Seed:          shardSeed,
				RefuseProb:    *refuse,
				PartitionProb: *partition,
				CutProb:       *cut,
				LatencyMax:    *latency,
				CrashProb:     *crash,
			},
			Policy:          node.Policy{MaxRetries: *retries, Backoff: *backoff, SuspicionK: *suspicionK},
			Churn:           *churn,
			Iterations:      *iterations,
			Workers:         *workers,
			Tau:             *tau,
			VirtualNodes:    *vnodes,
			SimScheme:       *simScheme,
			ExchangeTimeout: *exTimeout,
			KillProb:        *killProb,
			StateDir:        *stateDir,
			Out:             os.Stdout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak:", err)
			os.Exit(1)
		}
		printReport(rep)
		mergeReport(total, rep)
	}
	if *shards > 1 {
		fmt.Printf("soak: === %d shards, %d peers total ===\n", *shards, *shards**n)
		printReport(total)
	}
	if total.Runs == total.Failures {
		fmt.Fprintln(os.Stderr, "soak: every run failed")
		os.Exit(1)
	}
}

// shardSeed derives shard s's replayable fault seed from the base seed
// (SplitMix64 finalizer — matches the faultnet mixer family, so shard
// streams are decorrelated but each shard replays alone from its
// printed seed).
func shardSeed(base uint64, s int) uint64 {
	if s == 0 {
		return base // -shards 1 stays byte-compatible with old runs
	}
	x := base ^ (0x9E3779B97F4A7C15 * uint64(int64(s)))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mergeReport(dst, rep *soak.Report) {
	if dst.Runs == 0 {
		dst.Seed = rep.Seed
	}
	dst.Runs += rep.Runs
	dst.Failures += rep.Failures
	dst.Cycles += rep.Cycles
	dst.Elapsed += rep.Elapsed
	dst.Centroids = rep.Centroids
	if rep.LastErr != nil {
		dst.LastErr = rep.LastErr
	}
	dst.Wire.Add(rep.Wire)
	dst.Kills += rep.Kills
	dst.Resumes += rep.Resumes
	dst.PeakGoroutines = max(dst.PeakGoroutines, rep.PeakGoroutines)
	dst.PeakHeapBytes = max(dst.PeakHeapBytes, rep.PeakHeapBytes)
}

func printReport(rep *soak.Report) {
	fmt.Printf("soak: fault seed %d, %d runs (%d failed) in %s\n",
		rep.Seed, rep.Runs, rep.Failures, rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("soak: %d cycles (%.2f cycles/sec), last run released %d centroids\n",
		rep.Cycles, rep.CyclesPerSec(), rep.Centroids)
	w := rep.Wire
	fmt.Printf("soak: exchanges %d (init %d / resp %d), timeouts %d, retries %d, suspected %d, evicted %d, bad frames %d\n",
		w.Initiated+w.Responded, w.Initiated, w.Responded, w.Timeouts, w.Retries, w.Suspected, w.Evicted, w.BadFrames)
	if rep.Kills > 0 || rep.Resumes > 0 || w.Resumed > 0 {
		fmt.Printf("soak: restart storm: %d kills, %d journal resumes, %d resume announcements accepted\n",
			rep.Kills, rep.Resumes, w.Resumed)
	}
	fmt.Printf("soak: wire %.1f kB sent, %.1f kB received\n",
		float64(w.BytesSent)/1024, float64(w.BytesRecv)/1024)
	fmt.Printf("soak: peak %d goroutines, %.1f MB heap in use\n",
		rep.PeakGoroutines, float64(rep.PeakHeapBytes)/(1024*1024))
	if rep.LastErr != nil {
		fmt.Printf("soak: last failure: %v\n", rep.LastErr)
	}
}
