package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/faultnet"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/wireproto"
)

// kind selects how a workload's job is composed.
type kind int

const (
	kindSim       kind = iota // Job API, Mode Simulated
	kindNetTCP                // internal/node + internal/faultnet, one TCP listener per peer
	kindNetVnodes             // Job API, Mode Networked, one mux.Host
	kindCentralDP             // Job API, Mode CentralizedDP
)

// workload is one named set of inputs. The sizes are part of the
// definition; the seed argument only drives what is random in them: the
// participants' series and, per job, the protocol seed (noise draws,
// gossip schedule, injected write delays).
type workload struct {
	name string
	kind kind

	n          int // population (series)
	k          int // clusters
	iterations int
	epsilon    float64
	smooth     bool

	keyBits, degree int // Damgård–Jurik test key; keyBits 0 = plain scheme
	tau             int
	exchanges       int
	packSlots       int           // 0 auto, 1 off
	workers         int           // per-node crypto workers (0 = one per CPU)
	latencyMax      time.Duration // kindNetTCP: seeded per-frame write delay
	exchangeTimeout time.Duration

	// initSeed draws the k data-independent initial centroids. They are
	// configuration, like k: fixed per workload, never derived from the
	// run seed, so inertia_ratio compares like with like across seeds.
	initSeed uint64
	// ratioLo, ratioHi is the sanity band of inertia_ratio.
	ratioLo, ratioHi float64
	// heapMarkJob is the timed job after which peak_heap_mb is read (the
	// window's last job when it holds fewer): the virtual-node runtime
	// retains heap per job, so a reading at "whenever the clock ran out"
	// would vary with the job count, not with the code.
	heapMarkJob int
}

// workloads returns the four workloads at full or toy size. Toy keeps
// every code path (real keys, real sockets, packing, the mux host) at
// sizes a unit test can afford.
func workloads(toy bool) []workload {
	ws := []workload{
		{
			name: wSimDJ, kind: kindSim,
			n: 12, k: 2, iterations: 1, epsilon: 1e4,
			keyBits: 1024, degree: 1, tau: 4, exchanges: 12, packSlots: 1,
			initSeed: 0x51D1, ratioLo: 0.9, ratioHi: 1.5, heapMarkJob: 8,
		},
		{
			name: wNetDJWAN, kind: kindNetTCP,
			n: 16, k: 2, iterations: 1, epsilon: 1e4,
			keyBits: 1024, degree: 2, tau: 5, exchanges: 10, workers: 1,
			latencyMax: 10 * time.Millisecond, exchangeTimeout: 30 * time.Second,
			initSeed: 0x4E7D, ratioLo: 0.9, ratioHi: 1.5, heapMarkJob: 6,
		},
		{
			name: wNetVnodes, kind: kindNetVnodes,
			n: 400, k: 2, iterations: 1, epsilon: 1e4,
			tau: 5, exchanges: 12, exchangeTimeout: 10 * time.Minute,
			initSeed: 0x7A0D, ratioLo: 0.9, ratioHi: 1.5, heapMarkJob: 6,
		},
		{
			name: wCentralDP, kind: kindCentralDP,
			n: 500_000, k: 50, iterations: 10, epsilon: math.Ln2, smooth: true,
			initSeed: 0xCD90, ratioLo: 1, ratioHi: 50, heapMarkJob: 8,
		},
	}
	if toy {
		for i := range ws {
			w := &ws[i]
			w.n = min(w.n, 8)
			if w.kind == kindCentralDP {
				// 2,000 series cannot carry eps = ln 2 (every centroid
				// drowns); the toy keeps the code path, not the regime.
				w.n, w.k, w.iterations, w.epsilon = 2000, 4, 3, 1e3
			}
			if w.keyBits != 0 {
				w.keyBits = 128
				w.degree = max(w.degree, 4) // 128-bit keys need s = 4 for headroom
			}
			w.tau = min(w.tau, 3)
			w.exchanges = 6
			w.latencyMax = min(w.latencyMax, time.Millisecond)
		}
	}
	return ws
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads(false) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// distributed reports whether the workload runs the gossip protocol.
func (w workload) distributed() bool { return w.kind != kindCentralDP }

// phaseCycles is the fixed dissemination/decryption schedule every
// distributed workload runs (what a networked deployment must use; it
// also makes the per-peer byte count a constant of the workload).
func (w workload) phaseCycles() (diss, dec int) { return chiaroscuro.FixedPhaseCycles(w.n) }

// env is what one set-up hands the timed window: the generated inputs,
// the key material and the reference quality.
type env struct {
	w      workload
	seed   uint64
	data   *chiaroscuro.Dataset
	init   []chiaroscuro.Series
	scheme chiaroscuro.Scheme

	refInertia float64 // non-private Lloyd, same seeds and iteration count
	warmDigest uint64  // centroid digest of the untimed warm-up job
}

// jobSeed is job j's protocol seed under run seed s.
func jobSeed(s uint64, j int) uint64 { return s*1000 + uint64(j) }

// setup generates the workload's inputs from the seed, builds the key
// material, runs the non-private reference and one warm-up job, and
// cross-checks the warm-up against the simulator where the repo
// guarantees sim ≡ networked.
func setup(ctx context.Context, w workload, seed uint64) (*env, error) {
	e := &env{w: w, seed: seed}
	e.init = chiaroscuro.SeedCentroids("cer", w.k, w.initSeed)
	var err error
	if e.data, err = population(w, e.init, seed); err != nil {
		return nil, err
	}
	switch {
	case !w.distributed():
	case w.keyBits == 0:
		e.scheme, err = chiaroscuro.NewSimulationScheme(64, w.n, w.tau)
	default:
		e.scheme, err = chiaroscuro.NewTestScheme(w.keyBits, w.degree, w.n, w.tau)
	}
	if err != nil {
		return nil, fmt.Errorf("scheme: %w", err)
	}

	ref, err := chiaroscuro.NewJob(e.data, chiaroscuro.Options{
		Mode: chiaroscuro.Centralized, InitCentroids: e.init, MaxIterations: w.iterations,
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refRes, err := ref.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if e.refInertia, err = kmeans.IntraInertia(e.data, refRes.Centroids); err != nil {
		return nil, fmt.Errorf("reference inertia: %w", err)
	}

	warm, err := e.runJob(ctx, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	e.warmDigest = warm.digest
	if w.kind == kindNetVnodes {
		twin, err := e.runTwin(ctx, 0)
		if err != nil {
			return nil, fmt.Errorf("simulated twin: %w", err)
		}
		if twin.digest != warm.digest {
			return nil, fmt.Errorf("sim ≢ networked: simulated twin released %016x, networked warm-up %016x", twin.digest, warm.digest)
		}
	}
	return e, nil
}

// minCluster is the smallest initial cluster a distributed workload's
// population may have. The protocol drops a centroid whose perturbed
// count falls under its floor of one, so a singleton cluster loses its
// centroid on a coin flip of the count noise: a property of the input,
// not of the code under test, and one that would make inertia_ratio
// bimodal at these populations of 12 to 16.
const minCluster = 2

// population draws the workload's series from the seed. A distributed
// workload redraws (deterministically, from the next stream of the same
// seed) until every initial cluster has minCluster members.
func population(w workload, init []chiaroscuro.Series, seed uint64) (*chiaroscuro.Dataset, error) {
	for draw := uint64(0); draw < 64; draw++ {
		data, _ := chiaroscuro.GenerateCER(w.n, seed+draw<<32)
		if !w.distributed() {
			return data, nil
		}
		a, err := kmeans.Assign(data, init)
		if err != nil {
			return nil, fmt.Errorf("population: %w", err)
		}
		if slices.Min(a.Counts) >= minCluster {
			return data, nil
		}
	}
	return nil, fmt.Errorf("population: no draw of %d series gives every initial cluster %d members", w.n, minCluster)
}

// outcome is what one job released, plus the accounting the checks and
// the metrics read.
type outcome struct {
	wall      time.Duration
	centroids []chiaroscuro.Series // released (best-iteration) centroids
	digest    uint64
	epsilon   float64
	avgBytes  float64
	wire      *chiaroscuro.WireStats
}

// options maps the workload onto the public Job API.
func (e *env) options(j int) chiaroscuro.Options {
	w := e.w
	o := chiaroscuro.Options{
		InitCentroids: e.init,
		K:             w.k,
		DMin:          chiaroscuro.CERMin,
		DMax:          chiaroscuro.CERMax,
		Epsilon:       w.epsilon,
		MaxIterations: w.iterations,
		Smooth:        w.smooth,
		Seed:          jobSeed(e.seed, j),
	}
	switch w.kind {
	case kindCentralDP:
		o.Mode = chiaroscuro.CentralizedDP
		return o
	case kindSim:
		o.Mode = chiaroscuro.Simulated
	case kindNetVnodes:
		o.Mode = chiaroscuro.Networked
		o.VirtualNodes = w.n
		o.ExchangeTimeout = w.exchangeTimeout
	}
	o.Scheme = e.scheme
	o.Exchanges = w.exchanges
	o.DissCycles, o.DecryptCycles = w.phaseCycles()
	o.FracBits = 24
	o.PackSlots = w.packSlots
	o.Workers = w.workers
	return o
}

// runJob runs job j once and times it from construction to return
// (population boot included for the networked workloads). A non-nil jt
// traces it from outside: the scheme is decorated and the progress
// callbacks recorded.
func (e *env) runJob(ctx context.Context, j int, jt *jobTrace) (*outcome, error) {
	if e.w.kind == kindNetTCP {
		return e.runTCP(ctx, j, jt)
	}
	return e.runAPI(ctx, e.options(j), jt)
}

// runTwin runs job j's Simulated twin of a networked workload: same
// seed, scheme and fixed phase schedule, no wire.
func (e *env) runTwin(ctx context.Context, j int) (*outcome, error) {
	o := e.options(j)
	o.Mode = chiaroscuro.Simulated
	o.VirtualNodes = 0
	return e.runAPI(ctx, o, nil)
}

func (e *env) runAPI(ctx context.Context, o chiaroscuro.Options, jt *jobTrace) (*outcome, error) {
	start := time.Now()
	if jt != nil && o.Scheme != nil {
		o.Scheme = jt.wrap(o.Scheme)
	}
	job, err := chiaroscuro.NewJob(e.data, o)
	if err != nil {
		return nil, err
	}
	var watch sync.WaitGroup
	if jt != nil {
		jt.begin(start)
		events := job.Events()
		watch.Add(1)
		go func() {
			defer watch.Done()
			for ev := range events {
				switch ev := ev.(type) {
				case chiaroscuro.PhaseProgress:
					jt.cycle(ev.Iteration, int(ev.Phase), ev.Cycle, ev.Of)
				case chiaroscuro.IterationReleased:
					jt.released(ev.Iteration)
				}
			}
		}()
	}
	res, err := job.Run(ctx)
	wall := time.Since(start)
	watch.Wait()
	if jt != nil {
		jt.end(start.Add(wall))
	}
	if err != nil {
		return nil, err
	}
	out := &outcome{
		wall:      wall,
		centroids: bestRelease(res),
		epsilon:   res.TotalEpsilon,
		avgBytes:  res.AvgBytes,
		wire:      res.Wire,
	}
	out.digest = digest(out.centroids)
	return out, nil
}

// bestRelease picks the released centroid set a reader of a perturbed
// run would keep: the iteration whose released centroids have the
// lowest inertia on the job's own quality trace (CentralizedDP), the
// final release otherwise.
func bestRelease(res *chiaroscuro.Result) []chiaroscuro.Series {
	best, bestQ := -1, math.Inf(1)
	for i, s := range res.Stats {
		if i < len(res.History) && s.Centroids > 0 && s.PostInertia < bestQ {
			best, bestQ = i, s.PostInertia
		}
	}
	if best >= 0 {
		return res.History[best]
	}
	return res.Centroids
}

// runTCP composes the 16-peer loopback population directly from
// internal/node and internal/faultnet, the way soak.runOnce does (the
// soak harness hides the scheme and the centroids the trace and the
// checks need).
func (e *env) runTCP(ctx context.Context, j int, jt *jobTrace) (*outcome, error) {
	w := e.w
	start := time.Now()
	scheme := e.scheme
	if jt != nil {
		scheme = jt.wrap(scheme)
		jt.begin(start)
	}
	diss, dec := w.phaseCycles()
	proto := core.Config{
		K:             w.k,
		InitCentroids: e.init,
		DMin:          chiaroscuro.CERMin,
		DMax:          chiaroscuro.CERMax,
		Epsilon:       w.epsilon,
		MaxIterations: w.iterations,
		Exchanges:     w.exchanges,
		DissCycles:    diss,
		DecryptCycles: dec,
		FracBits:      24,
		PackSlots:     w.packSlots,
		Seed:          jobSeed(e.seed, j),
		Workers:       w.workers,
	}
	inj := faultnet.New(faultnet.Plan{Seed: proto.Seed, LatencyMax: w.latencyMax})
	nodes := make([]*node.Node, w.n)
	defer func() {
		for _, nd := range nodes {
			if nd != nil {
				_ = nd.Close() // idempotent; the success path already closed
			}
		}
	}()
	bootstrap := ""
	for i := range nodes {
		p := proto
		if i == 0 && jt != nil {
			// Participant 0's view, as the Job API's event stream reports.
			p.Observer = core.Observer{
				Phase:     func(it int, ph core.Phase, cycle, of int) { jt.cycle(it, int(ph), cycle, of) },
				Iteration: func(tr core.IterationTrace, _ []chiaroscuro.Series) { jt.released(tr.Iteration) },
			}
		}
		nd, err := node.New(node.Config{
			Index:           i,
			N:               w.n,
			Series:          e.data.Row(i),
			Scheme:          scheme,
			Proto:           p,
			Bootstrap:       bootstrap,
			ExchangeTimeout: w.exchangeTimeout,
			Dialer:          inj.Node(i),
		})
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		nodes[i] = nd
		if i == 0 {
			bootstrap = nd.Addr()
		}
	}
	results := make([]*node.Result, w.n)
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = nd.RunContext(ctx)
		}()
	}
	wg.Wait()
	wire := &chiaroscuro.WireStats{}
	for _, nd := range nodes {
		addCounters(wire, nd.Counters())
		_ = nd.Close() // shutdown only; the run's outcome is already in results
	}
	wall := time.Since(start)
	if jt != nil {
		jt.end(start.Add(wall))
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	r0 := results[0]
	return &outcome{
		wall:      wall,
		centroids: r0.Centroids,
		digest:    digest(r0.Centroids),
		epsilon:   r0.TotalEpsilon,
		avgBytes:  r0.AvgBytes,
		wire:      wire,
	}, nil
}

func addCounters(dst *chiaroscuro.WireStats, c wireproto.Counters) {
	dst.Initiated += c.Initiated
	dst.Responded += c.Responded
	dst.Timeouts += c.Timeouts
	dst.Rejected += c.Rejected
	dst.BadFrames += c.BadFrames
	dst.Retries += c.Retries
	dst.Suspected += c.Suspected
	dst.Evicted += c.Evicted
	dst.Resumed += c.Resumed
	dst.BytesSent += c.BytesSent
	dst.BytesRecv += c.BytesRecv
}

// digest is FNV-1a over the centroids' float bits: equal digests mean
// bit-identical releases.
func digest(centroids []chiaroscuro.Series) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	put(uint64(len(centroids)))
	for _, c := range centroids {
		put(uint64(len(c)))
		for _, v := range c {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// wireBytesPerPeer is what one participant sends per job: the gossip
// mirror accounting (Figure 5(b)) in the distributed workloads, and in
// the trusted-curator baseline the one upload of its own series.
func (e *env) wireBytesPerPeer(out *outcome) float64 {
	if e.w.distributed() {
		return out.avgBytes
	}
	return float64(8 * e.data.Dim())
}

// check verifies one job's outputs and returns its inertia ratio. Any
// violation fails the job.
func (e *env) check(j int, out *outcome) (ratio float64, err error) {
	w := e.w
	var errs []error
	fail := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }
	if len(out.centroids) == 0 {
		fail("no centroid released")
	}
	for _, c := range out.centroids {
		for _, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fail("non-finite centroid measure")
			}
		}
	}
	if out.epsilon <= 0 || out.epsilon > w.epsilon*(1+1e-9) {
		fail("total epsilon %v outside (0, %v]", out.epsilon, w.epsilon)
	}
	if j == 0 && out.digest != e.warmDigest {
		fail("not deterministic per seed: job 0 released %016x, warm-up %016x", out.digest, e.warmDigest)
	}
	if w.kind == kindNetTCP || w.kind == kindNetVnodes {
		switch ws := out.wire; {
		case ws == nil:
			fail("no wire accounting")
		case ws.Initiated == 0 || ws.Initiated != ws.Responded:
			fail("initiated %d != responded %d", ws.Initiated, ws.Responded)
		case ws.Timeouts+ws.BadFrames+ws.Rejected+ws.Retries > 0:
			fail("clean network saw timeouts %d, bad frames %d, rejected %d, retries %d", ws.Timeouts, ws.BadFrames, ws.Rejected, ws.Retries)
		}
	}
	if w.distributed() && !(out.avgBytes > 0) {
		fail("no gossip byte accounting")
	}
	if len(out.centroids) > 0 {
		q, qerr := kmeans.IntraInertia(e.data, out.centroids)
		if qerr != nil {
			fail("inertia: %v", qerr)
		}
		ratio = q / e.refInertia
		if !(ratio >= w.ratioLo && ratio <= w.ratioHi) {
			fail("inertia_ratio %.4f outside [%g, %g]", ratio, w.ratioLo, w.ratioHi)
		}
	}
	return ratio, errors.Join(errs...)
}
