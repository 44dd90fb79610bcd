package chiaroscuro

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync/atomic"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/dpkmeans"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/mux"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/randx"
)

// Mode selects a Job's execution backend. All four run the same
// clustering over the same Options; they differ in where the privacy
// and the network are real.
type Mode int

const (
	// Centralized runs plain (non-private) Lloyd k-means — the paper's
	// "No perturbation" quality baseline.
	Centralized Mode = iota
	// CentralizedDP runs centralized k-means with the paper's
	// differentially private release of every iteration's sums and
	// counts — the configuration of the quality experiments at millions
	// of series (Section 6.1).
	CentralizedDP
	// Simulated runs the complete distributed protocol — encrypted
	// gossip sums, collaborative noise, epidemic threshold decryption —
	// over an in-memory cycle engine, one participant per series.
	Simulated
	// Networked runs the same protocol over real TCP on the loopback
	// interface: one listener and peer runtime per series, speaking the
	// binary wire protocol. Results are participant 0's view.
	Networked
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Centralized:
		return "centralized"
	case CentralizedDP:
		return "centralized-dp"
	case Simulated:
		return "simulated"
	case Networked:
		return "networked"
	}
	return "unknown"
}

// Options is the single knob set shared by every run mode. Zero values
// take the paper's defaults where one exists; knobs a mode does not use
// are ignored (a Centralized run needs no Epsilon, a CentralizedDP run
// no Scheme). NewJob validates eagerly and returns the typed sentinel
// errors of errors.go on bad combinations.
type Options struct {
	// Mode selects the backend (default Centralized).
	Mode Mode

	// InitCentroids seeds the clustering. Required, and — for anything
	// private — data-independent: real series must never seed the run.
	InitCentroids []Series
	// K is the cluster count the distributed modes provision for
	// (message accounting, packing layout). 0 derives it from the live
	// seeds; the centralized modes always cluster to the seeds.
	K int

	// DMin, DMax bound each measure; they calibrate the Laplace
	// sensitivity (Definition 4) in every private mode, which refuses a
	// dataset with a measure outside them (ErrBadRange).
	DMin, DMax float64

	// Epsilon is the total privacy budget (paper: ln 2). Required in
	// Simulated and Networked modes; in CentralizedDP mode it may be
	// replaced by an explicit Budget.
	Epsilon float64
	// Budget is the ε concentration strategy (Greedy, GreedyFloor,
	// UniformFast). Default: Greedy(Epsilon).
	Budget Budget

	// MaxIterations bounds the run (default 10, the paper's n_it^max).
	MaxIterations int
	// Threshold is the θ convergence bound on centroid movement (0
	// stops only at an exact fixpoint, which no perturbed release
	// reaches). In Networked mode every participant evaluates it on the
	// same release, so all of them stop at the same iteration.
	Threshold float64
	// Smooth enables the circular moving-average smoothing of the
	// released means (Section 5.2).
	Smooth bool

	// Churn disconnects each participant with this probability — per
	// iteration in CentralizedDP mode, per gossip cycle in the
	// distributed modes (Section 6.1.5).
	Churn float64
	// MidFailure additionally corrupts in-flight exchanges under churn
	// (distributed modes).
	MidFailure bool

	// Seed makes the run reproducible. Released centroids are
	// bit-identical per seed across Simulated and Networked
	// single-iteration runs.
	Seed uint64

	// --- distributed knobs (Simulated and Networked modes) ---

	// Scheme is the threshold additively-homomorphic encryption the
	// protocol runs on (NewTestScheme, NewDamgardJurik,
	// NewSimulationScheme). Required; needs one key-share per series.
	Scheme Scheme
	// NoiseShares is the nν lower bound (default: population size).
	NoiseShares int
	// Exchanges is the gossip cycle count of each sum phase
	// (default: Theorem 3).
	Exchanges int
	// DissCycles and DecryptCycles, when positive, fix the correction-
	// dissemination and epidemic-decryption phase lengths, the schedule a
	// networked deployment must use. Zero keeps the simulator adaptive;
	// in Networked mode zero derives each length from the population, the
	// scheme's threshold, Churn and Newscast by the gossip convergence
	// model, at a failure probability of 10⁻⁶ per phase. A phase that
	// ends with a participant unfinished fails the run with
	// ErrPhaseBudget.
	DissCycles    int
	DecryptCycles int
	// Newscast uses bounded Newscast views (size 30) instead of uniform
	// peer sampling.
	Newscast bool
	// FracBits is the fixed-point encoding precision (default 30).
	FracBits uint
	// PackSlots controls ciphertext packing: how many fixed-point values
	// share one plaintext (slot width = value bits + a guard band sized
	// to the exchange budget). 0 auto-sizes from the scheme's plaintext
	// space (packing stays off when the space has no room, e.g. any s=1
	// key); 1 disables packing; >= 2 demands that many slots and fails
	// when they do not fit. Packing divides per-exchange ciphertext
	// counts and wire bytes by the pack factor; released centroids are
	// bit-identical either way.
	PackSlots int
	// Workers bounds the crypto/simulation worker pool (0 = one per
	// CPU, 1 = serial). Identical results per seed for any value.
	Workers int
	// TraceQuality records per-iteration inertia metrics (omniscient;
	// evaluation only; Simulated mode).
	TraceQuality bool
	// ExchangeTimeout bounds every blocking exchange step of a
	// Networked run (default 30s).
	ExchangeTimeout time.Duration
	// FaultPolicy hardens a Networked run against hostile networks:
	// exchange retries with backoff, and peer suspicion. The zero value
	// keeps the single-attempt behavior.
	FaultPolicy FaultPolicy
	// VirtualNodes, when at least 2, multiplexes a Networked run's
	// participants onto shared listeners in groups of this size (the
	// internal/mux virtual-node runtime): co-located pairs exchange over
	// in-process connections, remote pairs over TCP. Released centroids are
	// bit-identical to the default one-listener-per-participant shape
	// (and to the simulator) per seed; only the socket/goroutine
	// footprint changes. 0 or 1 keeps one listener per participant.
	VirtualNodes int
}

// FaultPolicy is the Networked mode's fault-tolerance policy. Retries
// only re-run exchange attempts that failed strictly before the local
// state merge — a committed half-exchange is never re-applied — so a
// run under retries releases the same centroids as one whose network
// never faulted, given the same completed-exchange trace.
type FaultPolicy struct {
	// MaxRetries is how many additional attempts a failed exchange leg
	// gets before its slot is abandoned (0 = single attempt).
	MaxRetries int
	// Backoff is the initial delay between attempts; it doubles per
	// attempt (capped at 8×) with ±50% jitter. Defaults to 25ms when
	// MaxRetries > 0.
	Backoff time.Duration
	// SuspicionK makes a node evict a peer after this many consecutive
	// initiator-side exchange failures (0 = never). Later exchanges to
	// an evicted peer fail fast instead of burning their deadline; the
	// peer's resume announcement reinstates it. Evictions surface as
	// Churn events with Reason ChurnEvicted, reinstatements with
	// ChurnResumed.
	SuspicionK int
}

// Result is the outcome of a Job, across all modes. Mode-specific
// fields stay zero where they do not apply: the centralized modes fill
// Stats (and CentralizedDP History/BestIter), the distributed modes
// fill Traces and the gossip accounting.
type Result struct {
	// Centroids is the final released centroid set (participant 0's
	// view in Networked mode).
	Centroids []Series
	// History holds every iteration's released centroids
	// (CentralizedDP mode).
	History [][]Series
	// BestIter is the 1-based iteration with the lowest inertia
	// (CentralizedDP mode; 0 if none).
	BestIter int
	// Stats traces the centralized modes' iterations.
	Stats []ClusterStats
	// Traces traces the distributed modes' iterations.
	Traces []NetworkTrace
	// TotalEpsilon is the privacy budget the run consumed.
	TotalEpsilon float64
	// Converged reports whether the θ criterion stopped the run.
	Converged bool
	// AvgMessages and AvgBytes are the per-participant gossip
	// accounting of the distributed modes.
	AvgMessages float64
	AvgBytes    float64
	// Wire is the population-wide wire-level accounting of a Networked
	// run (nil in every other mode): real exchange, fault-tolerance and
	// byte counters summed over all participants.
	Wire *WireStats
}

// ClusterStats traces one iteration of a centralized run.
type ClusterStats struct {
	Iteration    int
	Inertia      float64 // intra-cluster inertia (Definition 1)
	Centroids    int     // live centroids
	PostInertia  float64 // inertia against the released (perturbed) means; equals Inertia when unperturbed
	EpsilonSpent float64
}

// WireStats aggregates the wire counters of a Networked population.
type WireStats struct {
	Initiated int64 // exchanges initiated
	Responded int64 // exchanges answered
	Timeouts  int64 // exchange slots abandoned on a deadline
	Rejected  int64 // frames refused (bad version/epoch/bounds)
	BadFrames int64 // malformed or over-limit frames that dropped a connection
	Retries   int64 // exchange attempts retried after a transient failure
	Suspected int64 // consecutive-failure strikes recorded against peers
	Evicted   int64 // peers evicted from address books by suspicion
	Resumed   int64 // resume announcements accepted from restarted peers
	BytesSent int64
	BytesRecv int64
}

// Best returns the released centroids of the best (lowest-inertia)
// iteration when a release history exists (CentralizedDP mode) and the
// final centroids otherwise — the paper's methodology for reading a
// perturbed run, where late iterations drown in noise under GREEDY
// budgets.
func (r *Result) Best() []Series {
	if r.BestIter >= 1 && r.BestIter <= len(r.History) {
		return r.History[r.BestIter-1]
	}
	return r.Centroids
}

// engine is the internal execution backend behind a Job: one per Mode,
// all driving the same validated Options and feeding the same event
// hooks.
type engine interface {
	run(ctx context.Context, em *emitter) (*Result, error)
}

// Job is one configured clustering run. Build it with NewJob (options
// are validated eagerly), optionally subscribe to Events, then Run it
// once. A Job is not reusable: one Job, one run.
type Job struct {
	data *Dataset
	opts Options
	eng  engine
	bus  *eventBus

	started atomic.Bool
	done    chan struct{}
	res     *Result
	err     error
}

// NewJob validates opts against d eagerly — returning the typed
// sentinel errors of errors.go, not a failure deep inside the run —
// fills the paper defaults, and binds the mode's execution backend.
func NewJob(d *Dataset, opts Options) (*Job, error) {
	if err := validateOptions(d, &opts); err != nil {
		return nil, err
	}
	j := &Job{data: d, opts: opts, bus: newEventBus(), done: make(chan struct{})}
	switch opts.Mode {
	case Centralized:
		j.eng = &centralizedEngine{data: d, opts: opts}
	case CentralizedDP:
		j.eng = &dpEngine{data: d, opts: opts}
	case Simulated:
		j.eng = &simEngine{data: d, opts: opts}
	case Networked:
		j.eng = &netEngine{data: d, opts: opts}
	}
	return j, nil
}

// Run executes the job until convergence, the iteration cap, budget
// exhaustion, or cancellation. A cancelled ctx aborts the run cleanly —
// the gossip and decryption cycle loops stop between cycles, a
// Networked population shuts down its listeners and live connections —
// and Run returns ctx.Err(). Run may be called once; subsequent calls
// return ErrJobReused.
func (j *Job) Run(ctx context.Context) (*Result, error) {
	if j.started.Swap(true) {
		return nil, ErrJobReused
	}
	em := &emitter{bus: j.bus}
	res, err := j.eng.run(ctx, em)
	j.res, j.err = res, err
	j.bus.close(Done{Err: err})
	close(j.done)
	return res, err
}

// Wait blocks until Run finished and returns its outcome — the
// companion of running a Job from a goroutine while consuming Events
// on the caller's side.
func (j *Job) Wait() (*Result, error) {
	<-j.done
	return j.res, j.err
}

// Events returns a stream of typed progress events: IterationReleased
// as every iteration's centroids are released (decrypted, in the
// distributed modes), PhaseProgress per gossip cycle, Churn per churn
// resampling, and a terminal Done. The stream ends after Done.
//
// Subscribe before calling Run to observe a run from its start; each
// call creates an independent subscription that sees events from that
// point on (after the run it yields only Done). Breaking out of the
// loop unsubscribes for good: ranging the same iterator again ends
// immediately (call Events again for a fresh subscription). A
// subscriber must consume or break: an abandoned, un-broken iterator
// eventually applies backpressure to the run once its buffer fills. When nobody subscribes the run pays nothing — the
// emission sites are a single atomic load (see
// BenchmarkEventBusNoSubscriber).
func (j *Job) Events() iter.Seq[Event] {
	s := j.bus.subscribe()
	return func(yield func(Event) bool) {
		defer j.bus.unsubscribe(s)
		for {
			select {
			case <-s.gone:
				// The subscription was already ended (a previous range
				// broke out): the stream stays over instead of blocking
				// on a channel nobody feeds anymore.
				return
			case ev, ok := <-s.ch:
				if !ok || !yield(ev) {
					return
				}
			}
		}
	}
}

// validateOptions rejects invalid combinations eagerly and normalizes
// the defaults shared by every backend.
func validateOptions(d *Dataset, o *Options) error {
	if d == nil || d.Len() == 0 {
		return ErrNoData
	}
	if o.Mode < Centralized || o.Mode > Networked {
		return fmt.Errorf("%w: %d", ErrBadMode, int(o.Mode))
	}
	live := 0
	for _, c := range o.InitCentroids {
		if c == nil {
			continue
		}
		live++
		if len(c) != d.Dim() {
			return fmt.Errorf("%w: centroid has %d measures, series have %d", ErrSeedLength, len(c), d.Dim())
		}
	}
	if live == 0 {
		return ErrNoSeeds
	}
	if o.K < 0 {
		return fmt.Errorf("%w: %d", ErrBadK, o.K)
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("%w: %d", ErrBadIterations, o.MaxIterations)
	}
	if o.Threshold < 0 || math.IsNaN(o.Threshold) {
		return fmt.Errorf("%w: %v", ErrBadThreshold, o.Threshold)
	}
	if o.Churn < 0 || o.Churn >= 1 || math.IsNaN(o.Churn) {
		return fmt.Errorf("%w: %v", ErrBadChurn, o.Churn)
	}
	if o.DMin > o.DMax || math.IsNaN(o.DMin) || math.IsNaN(o.DMax) {
		return fmt.Errorf("%w: [%v, %v]", ErrBadRange, o.DMin, o.DMax)
	}
	// The private modes calibrate their noise to the Sum sensitivity over
	// [DMin, DMax] (Definition 4), which a measure outside it escapes.
	if o.Mode != Centralized && !d.InRange(o.DMin, o.DMax) {
		return fmt.Errorf("%w: a measure lies outside [%v, %v]", ErrBadRange, o.DMin, o.DMax)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: %d", ErrBadWorkers, o.Workers)
	}
	if o.PackSlots < 0 {
		return fmt.Errorf("%w: %d", ErrBadPackSlots, o.PackSlots)
	}
	if o.Exchanges < 0 || o.DissCycles < 0 || o.DecryptCycles < 0 || o.NoiseShares < 0 {
		return ErrBadCycles
	}
	if o.FaultPolicy.MaxRetries < 0 || o.FaultPolicy.Backoff < 0 || o.FaultPolicy.SuspicionK < 0 {
		return fmt.Errorf("%w: %+v", ErrBadFaultPolicy, o.FaultPolicy)
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 10
	}
	badEps := !(o.Epsilon > 0) || math.IsInf(o.Epsilon, 1)
	switch o.Mode {
	case CentralizedDP:
		if o.Budget == nil {
			if badEps {
				return fmt.Errorf("%w: %v (set Epsilon or a Budget)", ErrBadEpsilon, o.Epsilon)
			}
			o.Budget = Greedy(o.Epsilon)
		}
	case Simulated, Networked:
		if badEps {
			return fmt.Errorf("%w: %v", ErrBadEpsilon, o.Epsilon)
		}
		// The run's accountant is capped at Epsilon: a Budget planning
		// more would fail at the first release past the cap.
		if o.Budget != nil && dp.TotalSpent(o.Budget, o.MaxIterations) > o.Epsilon*(1+1e-9) {
			return fmt.Errorf("%w: Budget %s plans more than Epsilon %v over %d iterations", ErrBadEpsilon, o.Budget.Name(), o.Epsilon, o.MaxIterations)
		}
	}
	// A budget that grants the first iteration nothing would stop the
	// run before its first release.
	if o.Mode != Centralized && o.Budget != nil && !(o.Budget.Epsilon(1) > 0) {
		return fmt.Errorf("%w: Budget %s grants iteration 1 no privacy budget", ErrBadEpsilon, o.Budget.Name())
	}
	if o.Mode == Simulated || o.Mode == Networked {
		if d.Len() < 2 {
			return fmt.Errorf("%w: %d series", ErrTooFewParticipants, d.Len())
		}
		if o.Scheme == nil {
			return ErrNilScheme
		}
		if o.Scheme.NumShares() < d.Len() {
			return fmt.Errorf("%w: %d shares for %d participants", ErrSchemeShares, o.Scheme.NumShares(), d.Len())
		}
		if o.K == 0 {
			o.K = live
		}
	}
	return nil
}

// --- Centralized backend ---

type centralizedEngine struct {
	data *Dataset
	opts Options
}

func (g *centralizedEngine) run(ctx context.Context, em *emitter) (*Result, error) {
	res, err := kmeans.RunContext(ctx, g.data, kmeans.Config{
		InitCentroids: g.opts.InitCentroids,
		Threshold:     g.opts.Threshold,
		MaxIterations: g.opts.MaxIterations,
		OnIteration: func(s kmeans.IterationStats, means []Series) {
			em.iteration(s.Iteration, means, 0, s.IntraInertia)
		},
	})
	if err != nil {
		return nil, err
	}
	out := &Result{Centroids: res.Centroids, Converged: res.Converged}
	for _, s := range res.Stats {
		out.Stats = append(out.Stats, ClusterStats{
			Iteration:   s.Iteration,
			Inertia:     s.IntraInertia,
			Centroids:   s.Centroids,
			PostInertia: s.IntraInertia,
		})
	}
	return out, nil
}

// --- CentralizedDP backend ---

type dpEngine struct {
	data *Dataset
	opts Options
}

func (g *dpEngine) run(ctx context.Context, em *emitter) (*Result, error) {
	res, err := dpkmeans.RunContext(ctx, g.data, dpkmeans.Config{
		InitCentroids: g.opts.InitCentroids,
		Budget:        g.opts.Budget,
		DMin:          g.opts.DMin,
		DMax:          g.opts.DMax,
		Smooth:        g.opts.Smooth,
		MaxIterations: g.opts.MaxIterations,
		Threshold:     g.opts.Threshold,
		Churn:         g.opts.Churn,
		KeepHistory:   true,
		RNG:           randx.New(g.opts.Seed, 0xD9),
		OnIteration: func(s dpkmeans.IterationStats, released []Series) {
			em.iteration(s.Iteration, released, s.EpsilonSpent, s.PostInertia)
		},
	})
	if err != nil {
		return nil, err
	}
	best, _ := res.BestIteration()
	out := &Result{
		Centroids:    res.Centroids,
		History:      res.History,
		BestIter:     best,
		Converged:    res.Converged,
		TotalEpsilon: res.TotalEpsilon,
	}
	for _, s := range res.Stats {
		out.Stats = append(out.Stats, ClusterStats{
			Iteration:    s.Iteration,
			Inertia:      s.PreInertia,
			Centroids:    s.CentroidsOut,
			PostInertia:  s.PostInertia,
			EpsilonSpent: s.EpsilonSpent,
		})
	}
	return out, nil
}

// --- shared distributed configuration ---

// coreConfig maps the unified Options onto the internal protocol
// configuration, wiring the event hooks.
func coreConfig(o Options, em *emitter) core.Config {
	return core.Config{
		K:             o.K,
		InitCentroids: o.InitCentroids,
		DMin:          o.DMin,
		DMax:          o.DMax,
		Epsilon:       o.Epsilon,
		Budget:        o.Budget,
		MaxIterations: o.MaxIterations,
		Threshold:     o.Threshold,
		Smooth:        o.Smooth,
		NoiseShares:   o.NoiseShares,
		Exchanges:     o.Exchanges,
		Churn:         o.Churn,
		MidFailure:    o.MidFailure,
		DissCycles:    o.DissCycles,
		DecryptCycles: o.DecryptCycles,
		FracBits:      o.FracBits,
		PackSlots:     o.PackSlots,
		Seed:          o.Seed,
		Workers:       o.Workers,
		Newscast:      o.Newscast,
		TraceQuality:  o.TraceQuality,
		Observer: core.Observer{
			Iteration: func(tr core.IterationTrace, released []Series) {
				em.iteration(tr.Iteration, released, tr.EpsilonSpent, tr.PostInertia)
			},
			Phase: func(it int, p core.Phase, cycle, of int) {
				em.phase(it, Phase(p), cycle, of)
			},
			Churn: func(it, cycle, down int, reason string) {
				em.churn(it, cycle, down, reason)
			},
		},
	}
}

// --- Simulated backend ---

type simEngine struct {
	data *Dataset
	opts Options
}

func (g *simEngine) run(ctx context.Context, em *emitter) (*Result, error) {
	nw, err := core.NewNetwork(g.data, g.opts.Scheme, coreConfig(g.opts, em))
	if err != nil {
		return nil, err
	}
	res, err := nw.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return distributedResult(res), nil
}

// distributedResult maps a distributed run's outcome, the simulator's or
// a networked participant's, onto a Job's.
func distributedResult(r *core.Result) *Result {
	return &Result{
		Centroids:    r.Centroids,
		Traces:       r.Traces,
		TotalEpsilon: r.TotalEpsilon,
		Converged:    r.Converged,
		AvgMessages:  r.AvgMessages,
		AvgBytes:     r.AvgBytes,
	}
}

// --- Networked backend ---

type netEngine struct {
	data *Dataset
	opts Options
}

func (g *netEngine) run(ctx context.Context, em *emitter) (*Result, error) {
	np := g.data.Len()
	// The whole population, in groups of VirtualNodes behind shared mux
	// listeners (one listener each below 2). The event stream is
	// participant 0's view — Launch hands the Observer to the first
	// participant only — the same participant whose view the result
	// reports.
	pop, err := mux.Launch(node.Config{
		N:               np,
		Scheme:          g.opts.Scheme,
		Proto:           coreConfig(g.opts, em),
		ExchangeTimeout: g.opts.ExchangeTimeout,
		Policy: node.Policy{
			MaxRetries: g.opts.FaultPolicy.MaxRetries,
			Backoff:    g.opts.FaultPolicy.Backoff,
			SuspicionK: g.opts.FaultPolicy.SuspicionK,
		},
	}, g.data, 0, np, g.opts.VirtualNodes, nil)
	if err != nil {
		return nil, fmt.Errorf("chiaroscuro: %w", err)
	}
	defer pop.Close()
	results, err := pop.Run(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("chiaroscuro: %w", err)
	}
	out := distributedResult(&results[0].Result)
	ws := WireStats(pop.Counters())
	out.Wire = &ws
	return out, nil
}
