// Package soak is the chaos soak harness behind `cmd/soak`: it runs an
// in-process networked population — real TCP listeners, real wire
// frames — in a loop under a seeded faultnet plan
// (refusals, partitions, mid-frame cuts, latency, crash storms), the
// Section 6.1.5 churn model, and a join flood (every run boots the
// whole population through one bootstrap peer simultaneously), and
// reports sustained throughput as gossip cycles per second plus the
// aggregated wire and fault-tolerance counters.
//
// Two population shapes are supported: one listener per participant
// (the deployment shape, default) and the virtual-node shape
// (VirtualNodes), where the whole population lives behind one
// mux.Host and exchanges over its in-process connections — the shape
// that scales to the paper's hundred-thousand-peer populations on one
// machine. mux.Launch lays out both.
//
// Each run advances the fault plan's seed by one, so a soak sweeps a
// family of reproducible fault schedules; any failing run can be
// replayed by seeding a single run with the reported seed.
package soak

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/faultnet"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/homenc/damgardjurik"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/mux"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/wireproto"
)

// Config provisions a soak.
type Config struct {
	// N is the population size (default 8).
	N int
	// Duration bounds the soak wall-clock; runs start until it elapses
	// (0 = exactly one run).
	Duration time.Duration
	// Plan is the fault plan every run injects. Plan.Seed seeds run 0;
	// run r uses Plan.Seed + r.
	Plan faultnet.Plan
	// Policy is the per-node fault-tolerance policy.
	Policy node.Policy
	// Churn is the Section 6.1.5 modeled churn probability per cycle.
	Churn float64
	// Iterations is the protocol iteration count per run (default 1).
	Iterations int
	// Workers bounds each node's crypto worker pool (default 1: the
	// population already saturates the cores).
	Workers int
	// KeyBits and Degree size the test scheme (defaults 128, 4).
	KeyBits, Degree int
	// Tau overrides the decryption threshold (default max(2, N/3)).
	// Large virtual populations need a modest fixed threshold: the
	// epidemic decryption budget grows with log N, not N/3.
	Tau int
	// VirtualNodes runs the whole population as virtual nodes behind one
	// mux.Host (in-process connections) instead of one TCP listener each.
	VirtualNodes bool
	// SimScheme swaps real Damgård–Jurik for the arithmetic-faithful
	// plaintext scheme — same packing, framing and thresholds, no
	// modular exponentiation — so the soak measures runtime capacity
	// (sockets, goroutines, scheduling) rather than crypto throughput.
	SimScheme bool
	// ExchangeTimeout overrides the per-exchange deadline (default 2s;
	// thousand-peer virtual populations need minutes — a cycle's worth
	// of serial exchanges can sit ahead of a slot).
	ExchangeTimeout time.Duration
	// KillProb turns the soak into a restart storm: every ~50ms a
	// seeded supervisor coin-flips with this probability and, on heads,
	// kills one random live peer outright and relaunches it from its
	// crash-recovery journal. Requires the TCP shape (not VirtualNodes);
	// each peer runs with a durable journal under StateDir.
	KillProb float64
	// StateDir is where restart-storm journals live (one per peer per
	// run, under a per-seed subdirectory). Empty with KillProb set means
	// a temp directory that is removed when the soak ends.
	StateDir string
	// Out, when set, receives a progress line per run.
	Out io.Writer
}

// Report is the soak outcome.
type Report struct {
	Runs      int           // runs started
	Failures  int           // runs that returned an error
	Cycles    int           // gossip cycles completed (participant 0's traces)
	Elapsed   time.Duration // wall clock of the whole soak
	Centroids int           // centroids released by the last successful run
	Wire      wireproto.Counters
	Seed      uint64 // fault seed of run 0 (run r used Seed + r)
	LastErr   error  // last per-run error, if any
	Kills     int    // restart storm: peers killed mid-run by the supervisor
	Resumes   int    // restart storm: relaunches that resumed from a journal

	// Resource peaks observed across the soak (sampled every ~200ms):
	// the capacity numbers behind the PERF.md peers-per-process table.
	PeakGoroutines int
	PeakHeapBytes  uint64
}

// CyclesPerSec is the soak's sustained throughput.
func (r *Report) CyclesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Cycles) / r.Elapsed.Seconds()
}

func (c Config) withDefaults() Config {
	if c.N < 2 {
		c.N = 8
	}
	if c.Iterations <= 0 {
		c.Iterations = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.KeyBits == 0 {
		c.KeyBits = 128
	}
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.Tau <= 0 {
		c.Tau = max(2, c.N/3)
	}
	if c.ExchangeTimeout <= 0 {
		// Tight by default: a crash storm makes slots whose request never
		// arrives routine, and each burns its await window on the
		// responder's serial main loop.
		c.ExchangeTimeout = 2 * time.Second
	}
	return c
}

// finTimeout is the responder's wait for the commit leg. Only a run that
// models lost commit legs (churn, crashes at a leg, mid-frame cuts, a
// restart storm) wants it short, so a responder whose initiator died
// moves on; in a clean run the only thing a short wait can catch is a
// busy host's scheduling delay, reported as a timeout that never
// happened on the wire — so it is left to default to ExchangeTimeout.
func (c Config) finTimeout() time.Duration {
	if c.Churn > 0 || c.Plan.CrashProb > 0 || c.Plan.CutProb > 0 || c.KillProb > 0 {
		return 400 * time.Millisecond
	}
	return 0
}

// Scheme builds the soak's threshold scheme: real Damgård–Jurik test
// keys, or the arithmetic-faithful plaintext scheme when SimScheme is
// set (64-byte ciphertexts: DJ-frame-shaped without the arithmetic).
func (c Config) Scheme() (homenc.Scheme, error) {
	c = c.withDefaults()
	if c.SimScheme {
		return plain.New(nil, 64, c.N, c.Tau)
	}
	return damgardjurik.NewTestScheme(c.KeyBits, c.Degree, c.N, c.Tau)
}

// Run executes the soak. Per-run protocol errors (a crash storm can
// legitimately starve a run of key-shares) are counted, not fatal; only
// provisioning errors abort the soak.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.KillProb > 0 && cfg.VirtualNodes {
		return nil, fmt.Errorf("soak: restart storm (KillProb) needs the TCP shape, not VirtualNodes")
	}
	if cfg.KillProb > 0 && cfg.StateDir == "" {
		dir, err := os.MkdirTemp("", "chiaroscuro-soak-")
		if err != nil {
			return nil, err
		}
		cfg.StateDir = dir
		defer os.RemoveAll(dir)
	}
	scheme, err := cfg.Scheme()
	if err != nil {
		return nil, err
	}
	data, _ := datasets.GenerateCER(cfg.N, randx.New(cfg.Plan.Seed^0x50AC, 0))
	seeds := make([]timeseries.Series, 2)
	for c := range seeds {
		s := make(timeseries.Series, data.Dim())
		for j := range s {
			s[j] = 10 + 30*float64(c)
		}
		seeds[c] = s
	}

	rep := &Report{Seed: cfg.Plan.Seed}
	stopSampler := sampleResources(rep)
	defer stopSampler()
	start := time.Now()
	for run := 0; run == 0 || (cfg.Duration > 0 && time.Since(start) < cfg.Duration); run++ {
		plan := cfg.Plan
		plan.Seed = cfg.Plan.Seed + uint64(run)
		rep.Runs++
		runStart := time.Now()
		var (
			res            *node.Result
			counters       wireproto.Counters
			kills, resumes int
		)
		if cfg.KillProb > 0 {
			res, counters, kills, resumes, err = runRestartStorm(cfg, scheme, data, seeds, plan)
			rep.Kills += kills
			rep.Resumes += resumes
		} else {
			res, counters, err = runOnce(cfg, scheme, data, seeds, plan)
		}
		rep.Wire.Add(counters)
		if err != nil {
			rep.Failures++
			rep.LastErr = err
			if cfg.Out != nil {
				fmt.Fprintf(cfg.Out, "soak: run %d seed %d FAILED in %s: %v\n",
					run, plan.Seed, time.Since(runStart).Round(time.Millisecond), err)
			}
			continue
		}
		cycles := 0
		for _, tr := range res.Traces {
			cycles += tr.SumCycles + tr.DissCycles + tr.DecryptCycles
		}
		rep.Cycles += cycles
		rep.Centroids = len(res.Centroids)
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "soak: run %d seed %d ok in %s: %d cycles, %d centroids, retries %d, evicted %d, kills %d, resumes %d\n",
				run, plan.Seed, time.Since(runStart).Round(time.Millisecond),
				cycles, len(res.Centroids), counters.Retries, counters.Evicted, kills, resumes)
		}
	}
	rep.Elapsed = time.Since(start)
	stopSampler()
	return rep, nil
}

// sampleResources watches goroutine count and heap-in-use while the
// soak runs, recording the peaks into rep. The returned stop is
// idempotent and takes one final sample (so even sub-interval soaks
// report real numbers).
func sampleResources(rep *Report) (stop func()) {
	sample := func() {
		if g := runtime.NumGoroutine(); g > rep.PeakGoroutines {
			rep.PeakGoroutines = g
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > rep.PeakHeapBytes {
			rep.PeakHeapBytes = ms.HeapInuse
		}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		close(done)
		<-finished
		sample()
	}
}

// shared is the configuration every participant of one run shares.
func (c Config) shared(scheme homenc.Scheme, seeds []timeseries.Series, plan faultnet.Plan) node.Config {
	logN := bits.Len(uint(c.N))
	return node.Config{
		N:      c.N,
		Scheme: scheme,
		Proto: core.Config{
			K:             2,
			InitCentroids: seeds,
			DMin:          datasets.CERMin,
			DMax:          datasets.CERMax,
			Epsilon:       1e4, // quality is not under test; noise must not wipe centroids
			MaxIterations: c.Iterations,
			Exchanges:     10,
			DissCycles:    6 + 2*logN,
			DecryptCycles: 8 + 2*logN,
			FracBits:      24,
			Seed:          plan.Seed,
			Churn:         c.Churn,
			MidFailure:    c.Churn > 0,
			Workers:       c.Workers,
		},
		ExchangeTimeout: c.ExchangeTimeout,
		FinTimeout:      c.finTimeout(),
		JoinTimeout:     30 * time.Second,
		Policy:          c.Policy,
	}
}

// runOnce boots the full population — one TCP listener per participant
// through a join flood, or every participant behind one mux.Host — runs
// the protocol under the plan's faults, and returns participant 0's
// result plus the population's aggregated counters.
func runOnce(cfg Config, scheme homenc.Scheme, data *timeseries.Dataset, seeds []timeseries.Series, plan faultnet.Plan) (*node.Result, wireproto.Counters, error) {
	inj := faultnet.New(plan)
	group := 1
	if cfg.VirtualNodes {
		group = cfg.N
	}
	pop, err := mux.Launch(cfg.shared(scheme, seeds, plan), data, 0, cfg.N, group, func(nc *node.Config) error {
		nf := inj.Node(nc.Index)
		if nc.Dialer != nil {
			nf = nf.WithTransport(nc.Dialer.Dial) // faults over the host's in-process connections
		}
		nc.Dialer, nc.CrashHook = nf, nf.Crash
		return nil
	})
	if err != nil {
		return nil, wireproto.Counters{}, err
	}
	defer pop.Close()
	results, err := pop.Run(context.Background())
	agg := pop.Counters()
	if err != nil {
		return nil, agg, err
	}
	if len(results[0].Centroids) == 0 {
		return nil, agg, fmt.Errorf("run released no centroids")
	}
	return results[0], agg, nil
}

// runRestartStorm is runOnce's restart-storm variant: the TCP-shape
// population runs with one durable journal per peer, and a seeded
// supervisor ticker kills random live peers mid-protocol — the process
// dies with whatever its last fsynced commit recorded, exactly the
// kill -9 contract — then relaunches each victim from its journal. The
// relaunched peer rebinds its recorded listen address (SO_REUSEADDR),
// announces itself with a Resume handshake, and re-enters the run
// where its journal left off. Returns participant 0's result, the
// final-instance aggregated counters (resumed instances restore their
// predecessors' counters from the journal, so final instances carry
// the whole history), and the kill/resume totals.
func runRestartStorm(cfg Config, scheme homenc.Scheme, data *timeseries.Dataset, seeds []timeseries.Series, plan faultnet.Plan) (*node.Result, wireproto.Counters, int, int, error) {
	shared := cfg.shared(scheme, seeds, plan)
	inj := faultnet.New(plan)
	var agg wireproto.Counters

	// One subdirectory per fault seed: journals encode the run's seed in
	// their identity record, so a stale journal from another seed would
	// be (correctly) refused at relaunch. Start clean.
	dir := filepath.Join(cfg.StateDir, fmt.Sprintf("seed-%d", plan.Seed))
	_ = os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, agg, 0, 0, err
	}

	type cell struct {
		mu     sync.Mutex
		nd     *node.Node
		killed bool // supervisor closed this instance; its runner relaunches
		done   bool // runner finished for good (success or terminal failure)
	}
	cells := make([]*cell, cfg.N)
	for i := range cells {
		cells[i] = &cell{}
	}
	addrs := make([]string, cfg.N) // stable: relaunches rebind the saved addr

	faults := make([]*faultnet.NodeFaults, cfg.N)
	for i := range faults {
		faults[i] = inj.Node(i)
	}

	launch := func(i int) (*node.Node, error) {
		st, err := node.OpenState(filepath.Join(dir, fmt.Sprintf("node-%d.journal", i)))
		if err != nil {
			return nil, err
		}
		bootstrap := ""
		for j := range addrs {
			if j != i && addrs[j] != "" {
				bootstrap = addrs[j]
				break
			}
		}
		nc := shared
		nc.Index, nc.Series, nc.Bootstrap, nc.State = i, data.Row(i), bootstrap, st
		nc.Dialer, nc.CrashHook = faults[i], faults[i].Crash
		nd, err := node.New(nc)
		if err != nil {
			_ = st.Close()
			return nil, err
		}
		addrs[i] = nd.Addr()
		return nd, nil
	}

	defer func() {
		for _, c := range cells {
			c.mu.Lock()
			nd := c.nd
			c.mu.Unlock()
			if nd != nil {
				_ = nd.Close()
			}
		}
	}()

	// Join flood, as in runOnce: node 0 first so the rest have a
	// bootstrap peer.
	for i := 0; i < cfg.N; i++ {
		nd, err := launch(i)
		if err != nil {
			return nil, agg, 0, 0, err
		}
		cells[i].nd = nd
	}

	var kills, resumes atomic.Int64
	stopKiller := make(chan struct{})
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		rng := randx.New(plan.Seed^0xC4A5, 9)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopKiller:
				return
			case <-t.C:
				if !rng.Bernoulli(cfg.KillProb) {
					continue
				}
				c := cells[rng.IntN(cfg.N)]
				c.mu.Lock()
				nd := c.nd
				if nd == nil || c.done || c.killed {
					c.mu.Unlock()
					continue
				}
				c.killed = true
				c.mu.Unlock()
				_ = nd.Close()
				kills.Add(1)
			}
		}
	}()

	results := make([]*node.Result, cfg.N)
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cells[i]
			// Bound relaunches so a pathological schedule cannot spin a
			// runner forever; 64 restarts of one peer in one run is far
			// beyond any plausible storm.
			for attempt := 0; ; attempt++ {
				c.mu.Lock()
				nd := c.nd
				c.mu.Unlock()
				res, err := nd.Run()
				c.mu.Lock()
				wasKilled := c.killed
				c.killed = false
				// A killed instance's result is discarded even when Run
				// limped to a nil error: Close only severs the network
				// runtime, but the contract under test is kill -9 — the
				// whole process dies — so the victim must come back
				// through its journal, not coast on an in-memory result.
				if !wasKilled || attempt >= 64 {
					c.done = true
					c.mu.Unlock()
					results[i], errs[i] = res, err
					return
				}
				c.mu.Unlock()
				nd2, lerr := launch(i)
				if lerr != nil {
					c.mu.Lock()
					c.done = true
					c.mu.Unlock()
					errs[i] = fmt.Errorf("relaunch: %w", lerr)
					return
				}
				resumes.Add(1)
				c.mu.Lock()
				c.nd = nd2
				c.mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	close(stopKiller)
	<-killerDone

	for _, c := range cells {
		agg.Add(c.nd.Counters())
	}
	nKills, nResumes := int(kills.Load()), int(resumes.Load())
	for i, err := range errs {
		if err != nil {
			return nil, agg, nKills, nResumes, fmt.Errorf("node %d: %w", i, err)
		}
	}
	if len(results[0].Centroids) == 0 {
		return nil, agg, nKills, nResumes, fmt.Errorf("run released no centroids")
	}
	return results[0], agg, nKills, nResumes, nil
}
