// Package core assembles the complete Chiaroscuro execution sequence of
// Section 4 of the paper — the iterative protocol of Algorithms 1 and
// 3 — over a simulated population: one eesum.Participant machine per
// participant, each holding its Diptych (Definition 6), driven by the
// in-memory cycle engine. Iterate is the one iteration body, at the
// boundaries between the phases; the simulated Network and every
// networked node (internal/node) only build their participants and run
// each phase. Beside that, the Network keeps what only an omniscient
// simulation can do: stop a phase at global convergence and trace
// quality.
//
// Every iteration:
//
//  1. Assignment step — each participant assigns its own time-series to
//     the closest cleartext (differentially private) centroid and builds
//     its encrypted means contribution: its series in the chosen
//     cluster's slots, a count of one, zeros elsewhere;
//  2. Computation step (Algorithm 3) —
//     a. each participant folds its noise-share into its means
//     contribution and encrypts the sum, and one EESum state sums them
//     over the gossip exchanges, alongside the cleartext participant
//     counter;
//     b. every participant applies its own noise surplus correction to
//     its own sum, which perturbs its means; min-identifier
//     dissemination elects one perturbed vector for everyone;
//     c. the elected vector is decrypted epidemically with τ distinct
//     key-shares, so every participant releases the same centroids;
//  3. Convergence step — each participant divides sums by counts,
//     smooths (Section 5.2), drops aberrant means (footnote 8), and
//     checks the θ / iteration-cap termination criterion locally.
//
// The paper's security analysis (Appendix B) holds structurally here:
// everything that travels between participants is either
// homomorphically encrypted (means, noise), differentially private
// (decrypted perturbed means), or data-independent (weights, epochs,
// counters, election identifiers).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"

	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/parallel"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/sim"
	"chiaroscuro/internal/timeseries"
)

// Phase identifies one of the three gossip phases of a protocol
// iteration (Algorithm 3): the encrypted sum of the means and the
// noise, the min-identifier correction dissemination, the epidemic
// threshold decryption. The networked peer runtime orders its exchange slots by
// the same ranks.
type Phase int

const (
	PhaseSum Phase = iota
	PhaseDissemination
	PhaseDecryption
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseSum:
		return "sum"
	case PhaseDissemination:
		return "dissemination"
	case PhaseDecryption:
		return "decryption"
	}
	return "unknown"
}

// Observer receives protocol progress callbacks from a run. All
// callbacks fire on the protocol goroutine, consume no protocol RNG
// (an observed run is draw-for-draw identical to a blind one), and
// must return quickly; nil members are skipped. The networked peer
// runtime (internal/node) drives the same callbacks from its side of
// the wire, so a consumer sees one shape across backends.
type Observer struct {
	// Iteration fires once per protocol iteration, after the local
	// convergence step: the iteration's trace and its released
	// (compacted, cleartext, differentially private) centroids.
	Iteration func(tr IterationTrace, released []timeseries.Series)
	// Phase fires after every gossip cycle: cycle counts completed
	// cycles (1-based) of the phase's budget of. A phase whose length
	// is adaptive (convergence-determined rather than fixed) reports
	// of = 0.
	Phase func(iter int, phase Phase, cycle, of int)
	// Churn fires whenever participants drop out of the run's view —
	// on every churn-model resampling (reason ChurnModel, with the
	// number of disconnected nodes), and, in the networked runtime,
	// when a node's peer suspicion evicts an unresponsive peer (reason
	// ChurnEvicted, down = 1) — and when an evicted peer
	// comes back (reason ChurnResumed, down = 1): a crash-recovered
	// peer's resume announcement lifted the eviction.
	Churn func(iter, cycle, down int, reason string)
}

// Churn reasons reported through Observer.Churn.
const (
	// ChurnModel is a Section 6.1.5 churn-model resampling.
	ChurnModel = "model"
	// ChurnEvicted is a peer-suspicion eviction in the networked
	// runtime: a peer failed too many consecutive exchanges and was
	// dropped from the address book.
	ChurnEvicted = "evicted"
	// ChurnResumed is the eviction's inverse: a peer relaunched from
	// its crash-recovery journal announced itself and was reinstated.
	ChurnResumed = "resumed"
)

// Config parametrizes a Chiaroscuro network run.
type Config struct {
	K             int                 // number of clusters
	InitCentroids []timeseries.Series // C_init (data-independent seeds)
	DMin, DMax    float64             // per-measure range (Sum sensitivity)

	Epsilon float64   // total privacy budget ε (paper: ln 2)
	Budget  dp.Budget // concentration strategy (default Greedy{ε})

	MaxIterations int     // n_it^max (default 10)
	Threshold     float64 // θ convergence threshold (0: stop only at an exact fixpoint)

	Smooth bool // SMA smoothing (Section 5.2)

	NoiseShares int // nν (default: population size)
	Exchanges   int // ne gossip cycles per sum phase (default: Theorem 3, at emaxTarget)

	FracBits uint   // fixed-point fractional bits (default homenc.DefaultFracBits)
	Seed     uint64 // simulation seed

	// PackSlots controls ciphertext packing of the encrypted means and
	// noise vectors: how many fixed-point values share one plaintext,
	// each slot padded with a guard band covering the exchange budget's
	// worst-case epoch growth. 0 auto-sizes from the scheme's
	// PlaintextSpace() (falling back to 1 when the space has no room
	// for 2 guarded slots — in particular for every s=1 key at realistic
	// exchange counts); 1 disables packing; >= 2 demands that many slots
	// and fails construction when they do not fit. Packing divides the
	// per-exchange ciphertext count and wire bytes by the pack factor
	// and releases bit-identical centroids (slot arithmetic is exact).
	PackSlots int

	Churn      float64 // per-cycle disconnection probability
	MidFailure bool    // corrupt in-flight exchanges under churn

	// Workers bounds the worker pool used for encryption fan-outs,
	// per-dimension homomorphic loops, partial-decryption sweeps and
	// the parallel simulation cycles (0 = process-wide default, 1 =
	// fully serial). Results are identical per seed for any value.
	Workers int

	// DissCycles, when positive, fixes the number of correction-
	// dissemination cycles instead of stopping at convergence, and
	// DecryptCycles likewise fixes the epidemic-decryption phase length.
	// Fixed lengths are how a networked deployment schedules phases — no
	// participant can observe global convergence — and node.Provision
	// derives them with PhaseCycles when they are zero: the convergence
	// model's lengths at a failure bound of PhaseFailureBound per phase.
	// A simulation configured with the same values is cycle-for-cycle
	// identical to a networked run at the same seed. Zero keeps the
	// simulator adaptive. Either way, a phase that ends with a
	// participant unfinished fails the run with ErrPhaseBudget.
	DissCycles    int
	DecryptCycles int

	// Newscast samples exchange peers from bounded Newscast views (size
	// 30) instead of uniformly. Samplers are stateful, so every engine
	// draws from one of its own (NewSampler): one Config can provision
	// any number of engines.
	Newscast bool

	// Observer receives progress callbacks (per-iteration releases,
	// per-cycle phase progress, churn). Zero value: no callbacks.
	Observer Observer

	// TraceQuality computes the (omniscient) pre-perturbation inertia of
	// every iteration for evaluation purposes. It reads all series,
	// which a real deployment could not; it never feeds back into the
	// protocol.
	TraceQuality bool
}

// IterationTrace records one iteration of the distributed protocol.
type IterationTrace struct {
	Iteration     int
	CentroidsIn   int // live centroids used for assignment
	CentroidsOut  int // centroids surviving perturbation + filters
	EpsilonSpent  float64
	SumCycles     int     // gossip cycles of the encrypted sum phase
	DissCycles    int     // cycles of the correction dissemination
	DecryptCycles int     // cycles of the epidemic decryption
	PreInertia    float64 // only when Config.TraceQuality
	PostInertia   float64 // only when Config.TraceQuality

	// ShareApplications counts key-share applications to the elected
	// vector: over every participant in the simulator, the participant's
	// own (0 or 1) in a networked trace.
	ShareApplications int
}

// Result is the outcome of a full protocol run.
type Result struct {
	Centroids    []timeseries.Series // final centroids (participant 0's view)
	Traces       []IterationTrace
	TotalEpsilon float64
	Converged    bool
	AvgMessages  float64 // average gossip messages sent per participant
	AvgBytes     float64 // average bytes sent per participant
}

// Network is a simulated Chiaroscuro deployment: one participant per
// series of the dataset.
type Network struct {
	cfg     Config
	env     *eesum.Env
	data    *timeseries.Dataset
	np      int
	engine  *sim.Engine
	rng     *randx.RNG
	acct    *dp.Accountant
	curIter int // iteration in flight, read by the engine's churn hook

	// dissCap and decCap bound the adaptive phases: four times the
	// derived lengths (PhaseCycles), and never below the 4× and 64× the
	// sum length they were before, so no adaptive run stops earlier.
	dissCap, decCap int
}

// NewNetwork validates the configuration and builds the deployment.
// Every participant owns one series of data and one key-share of sch
// (participant i holds share i+1), so sch.NumShares() must be at least
// data.Len().
func NewNetwork(data *timeseries.Dataset, sch homenc.Scheme, cfg Config) (*Network, error) {
	np := data.Len()
	if err := cfg.Validate(np, data.Dim(), sch); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize(np)
	pack, err := PackingFor(cfg, np, data.Dim(), sch)
	if err != nil {
		return nil, err
	}
	diss, dec := PhaseCycles(np, sch.Threshold(), cfg.Churn, cfg.Newscast)
	nw := &Network{
		cfg:     cfg,
		env:     &eesum.Env{Scheme: sch, Pack: pack, Workers: cfg.Workers, SumEpochs: HeadroomNeeded(cfg.Exchanges)},
		data:    data,
		np:      np,
		rng:     ProtocolRNG(cfg.Seed),
		acct:    &dp.Accountant{Cap: cfg.Epsilon * (1 + 1e-9)},
		dissCap: max(4*diss, 4*cfg.Exchanges),
		decCap:  max(4*dec, 64*cfg.Exchanges),
	}
	ecfg := MirrorEngineConfig(cfg, np, data.Dim(), sch, pack)
	if hook := cfg.Observer.Churn; hook != nil {
		// The hook runs on the scheduling goroutine — the same one that
		// advances curIter — so the read is race-free.
		ecfg.OnChurn = func(cycle, down int) { hook(nw.curIter, cycle, down, ChurnModel) }
	}
	engine, err := sim.New(ecfg, cfg.NewSampler())
	if err != nil {
		return nil, err
	}
	nw.engine = engine
	return nw, nil
}

// Normalize fills the paper defaults that depend on the population
// size, returning the effective configuration. Both the simulated
// Network and every networked peer apply it to the shared parameters,
// so their derived defaults are guaranteed to agree.
func (cfg Config) Normalize(np int) Config {
	if cfg.Budget == nil {
		cfg.Budget = dp.Greedy{Eps: cfg.Epsilon}
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 10
	}
	if cfg.NoiseShares <= 0 {
		cfg.NoiseShares = np
	}
	if cfg.Exchanges <= 0 {
		cfg.Exchanges = dp.Theorem3Exchanges(np, 1, emaxTarget, 0.005)
	}
	if cfg.Workers == 0 {
		cfg.Workers = parallel.Workers()
	}
	return cfg
}

// NewSampler returns a fresh peer sampler for one engine: a Newscast
// sampler holds every participant's view and mutates it on each draw, so
// engines never share one.
func (cfg Config) NewSampler() sim.Sampler {
	if cfg.Newscast {
		return &sim.NewscastSampler{ViewSize: 30}
	}
	return &sim.UniformSampler{}
}

// Validate checks what every deployment of np participants holding
// series of seriesDim points must satisfy, whichever driver runs it: a
// population of at least two, a key-share per participant, a positive
// budget, and live init centroids as long as the series. NewNetwork and
// every networked participant (node.Provision) call it.
func (cfg Config) Validate(np, seriesDim int, sch homenc.Scheme) error {
	if np < 2 {
		return errors.New("core: need at least 2 participants")
	}
	if sch == nil {
		return errors.New("core: nil scheme")
	}
	if sch.NumShares() < np {
		return fmt.Errorf("core: scheme has %d key-shares for %d participants", sch.NumShares(), np)
	}
	if cfg.Epsilon <= 0 {
		return errors.New("core: epsilon must be positive")
	}
	if len(kmeans.Compact(cfg.InitCentroids)) == 0 {
		return kmeans.ErrNoCentroids
	}
	for _, c := range cfg.InitCentroids {
		if c != nil && len(c) != seriesDim {
			return fmt.Errorf("core: centroid has %d points, series have %d", len(c), seriesDim)
		}
	}
	return nil
}

// MirrorEngineConfig is the exact engine configuration a deployment of
// np participants runs on — shared so every networked peer can mirror
// the engine (same seed, same churn model, same accounting) and draw
// the identical exchange schedule the simulator executes. pack is the
// deployment's slot layout (from PackingFor): the byte accounting
// counts packed ciphertexts, so the Figure 5(b) bandwidth divides by
// the pack factor, while the exchange schedule itself is byte-
// independent — which is why a packed run stays cycle-for-cycle
// identical to an unpacked one.
func MirrorEngineConfig(cfg Config, np, seriesDim int, sch homenc.Scheme, pack homenc.PackedCodec) sim.Config {
	ctPerSet := pack.PackedLen(cfg.K * (seriesDim + 1))
	return sim.Config{
		N:            np,
		Seed:         cfg.Seed,
		Churn:        cfg.Churn,
		MidFailure:   cfg.MidFailure,
		MessageBytes: sch.CiphertextBytes() * (ctPerSet + 1),
		Workers:      cfg.Workers,
	}
}

// ProtocolRNG is the deterministic base source of the protocol's noise
// draws for a given seed; per-participant streams derive from it
// (eesum.NodeNoiseStreams).
func ProtocolRNG(seed uint64) *randx.RNG { return randx.New(seed, 0xD1F7) }

// SumAbsBound upper-bounds the absolute encoded value any EESum slot
// can reach before epoch scaling: the global sum of measures plus the
// worst-case noise magnitude (taken very generously at 64 λ_max). It is
// computable from the shared configuration alone, so every networked
// participant derives the same headroom verdict.
func SumAbsBound(cfg Config, np, seriesDim int, codec homenc.Codec) *big.Int {
	maxMeasure := math.Max(math.Abs(cfg.DMin), math.Abs(cfg.DMax))
	sens := dp.SumSensitivity(seriesDim, cfg.DMin, cfg.DMax)
	// Smallest per-iteration ε the strategy will ever use bounds λ.
	minEps := cfg.Epsilon
	for it := 1; it <= cfg.MaxIterations; it++ {
		if e := cfg.Budget.Epsilon(it); e > 0 && e < minEps {
			minEps = e
		}
	}
	lambdaMax := sens / (minEps / 2)
	bound := float64(float64(np)*maxMeasure) + float64(64*lambdaMax)
	return codec.Encode(bound)
}

// HeadroomNeeded is the epoch headroom a full run must fit: the EESum
// epoch grows by one per exchange a node participates in, with cascades
// across a cycle, so 8 per scheduled gossip cycle plus slack is a
// comfortable margin. The same bound sizes the per-slot guard bands of
// the packed layout and the wire-side epoch sanity check.
func HeadroomNeeded(exchanges int) int { return 8*exchanges + 64 }

// PackingFor derives the ciphertext packing layout a deployment of np
// participants runs with — slot guard bands sized from the corrected
// headroom math for the configured exchange count, slot counts resolved
// against the scheme's plaintext space per cfg.PackSlots — and performs
// the plaintext-headroom pre-flight: a packed layout (>= 2 slots)
// carries its guard band inside every slot by construction, while an
// unpacked run must fit the whole epoch budget between the sum bound
// and half the plaintext space. It is computable from the shared
// (normalized) configuration alone, so the simulator, every networked
// peer, and the mirror byte accounting all derive the identical layout.
func PackingFor(cfg Config, np, seriesDim int, sch homenc.Scheme) (homenc.PackedCodec, error) {
	codec := homenc.NewCodec(cfg.FracBits)
	bound := SumAbsBound(cfg, np, seriesDim, codec)
	needed := HeadroomNeeded(cfg.Exchanges)
	pc, err := homenc.NewPackedCodec(codec, sch.PlaintextSpace(), bound, needed, cfg.PackSlots)
	if err != nil {
		return pc, fmt.Errorf("core: %w", err)
	}
	if space := sch.PlaintextSpace(); pc.Slots == 1 && space != nil {
		if have := homenc.HeadroomEpochs(space, bound); have < needed {
			return pc, fmt.Errorf("core: plaintext space too small: %d epochs of headroom, need ~%d (raise key bits or the scheme degree s)", have, needed)
		}
	}
	return pc, nil
}

// Run executes the full protocol until convergence or the iteration cap
// (Section 4.2.4) and returns participant 0's final view.
func (nw *Network) Run() (*Result, error) {
	return nw.RunContext(context.Background())
}

// RunContext is Run with cancellation: the context is checked between
// iterations and between gossip cycles inside the sum, dissemination
// and decryption phase loops, so a cancelled run returns ctx.Err()
// promptly even mid-phase.
func (nw *Network) RunContext(ctx context.Context) (*Result, error) {
	res := &Result{}
	loop := kmeans.Loop{MaxIterations: nw.cfg.MaxIterations, Threshold: nw.cfg.Threshold, Budget: nw.cfg.Budget, Acct: nw.acct}
	out, err := loop.Run(ctx, 1, kmeans.Compact(nw.cfg.InitCentroids), func(it int, cur []timeseries.Series, epsIter float64) ([]timeseries.Series, bool, error) {
		nw.curIter = it
		trace, next, err := nw.iterate(ctx, it, cur, epsIter)
		if err != nil {
			return nil, false, err
		}
		res.Traces = append(res.Traces, *trace)
		return next, false, nil
	})
	if err != nil {
		return nil, err
	}
	res.Centroids, res.TotalEpsilon, res.Converged = out.Centroids, out.Epsilon, out.Converged
	res.AvgMessages = nw.engine.AvgMessages()
	res.AvgBytes = nw.engine.AvgBytes()
	return res, nil
}

// The in-memory exchangers, one per gossip phase: each runs a whole
// exchange between two participants' machines. Sum and decryption
// exchanges touch only their two participants, so the engine's parallel
// cycle mode applies; a dissemination exchange is too cheap to be worth
// a worker and runs serially.
type (
	sumPhase  []*eesum.Participant
	dissPhase []*eesum.Participant
	decPhase  []*eesum.Participant
)

func (ps sumPhase) Exchange(a, b sim.NodeID, full bool)  { ps[a].ExchangeSum(ps[b], full) }
func (ps dissPhase) Exchange(a, b sim.NodeID, full bool) { ps[a].ExchangeDiss(ps[b], full) }
func (ps decPhase) Exchange(a, b sim.NodeID, full bool)  { ps[a].ExchangeDec(ps[b], full) }
func (sumPhase) ConcurrentExchangeSafe() bool            { return true }
func (decPhase) ConcurrentExchangeSafe() bool            { return true }

// elected reports whether every participant holds the same vector.
func elected(ps []*eesum.Participant) bool {
	for _, p := range ps[1:] {
		if p.VecID != ps[0].VecID {
			return false
		}
	}
	return true
}

// unsettled counts the participants that gathered fewer than τ
// key-shares.
func unsettled(ps []*eesum.Participant) int {
	open := 0
	for _, p := range ps {
		if !p.Settled() {
			open++
		}
	}
	return open
}

// runPhase runs one phase and returns how many cycles it ran. A fixed
// length (the sum's, and the networked deployment's schedule for the
// others) runs every cycle, past convergence too; a zero length is
// adaptive and stops as soon as done holds, or after limit cycles.
func (nw *Network) runPhase(ctx context.Context, it int, phase Phase, x sim.Exchanger, fixed, limit int, done func() bool) (int, error) {
	budget := fixed
	if fixed <= 0 {
		fixed, budget = 0, limit
	}
	c := 0
	for ; c < budget && (fixed > 0 || !done()); c++ {
		if err := ctx.Err(); err != nil {
			return c, err
		}
		nw.engine.RunCycleOn(x)
		// An adaptive phase's length is convergence-determined: of = 0.
		if hook := nw.cfg.Observer.Phase; hook != nil {
			hook(it, phase, c+1, fixed)
		}
	}
	return c, nil
}

// iterate runs iteration it over the whole population: every
// participant starts from its own series, and every phase runs on the
// engine.
func (nw *Network) iterate(ctx context.Context, it int, centroids []timeseries.Series, epsIter float64) (*IterationTrace, []timeseries.Series, error) {
	var ps []*eesum.Participant
	d := Driver{
		Start: func(noise eesum.NoiseConfig) []*eesum.Participant {
			streams := eesum.NodeNoiseStreams(nw.rng, nw.np)
			ps = make([]*eesum.Participant, nw.np)
			parallel.ForEach(nw.cfg.Workers, nw.np, func(i int) {
				ps[i] = StartParticipant(nw.env, i, streams[i], noise, nw.data.Row(i), centroids)
			})
			return ps
		},
		Run: func(phase Phase) (int, error) {
			switch phase {
			case PhaseSum:
				return nw.runPhase(ctx, it, phase, sumPhase(ps), nw.cfg.Exchanges, 0, nil)
			case PhaseDissemination:
				return nw.runPhase(ctx, it, phase, dissPhase(ps), nw.cfg.DissCycles, nw.dissCap, func() bool { return elected(ps) })
			}
			return nw.runPhase(ctx, it, phase, decPhase(ps), nw.cfg.DecryptCycles, nw.decCap, func() bool { return unsettled(ps) == 0 })
		},
	}
	if nw.cfg.TraceQuality {
		d.Trace = func(tr *IterationTrace, released []timeseries.Series) { nw.traceQuality(tr, centroids, released) }
	}
	return nw.cfg.Iterate(it, centroids, epsIter, d)
}

// Driver is what Iterate runs one iteration through: the participants
// one process holds (the simulator's whole population, or a networked
// node's one) and the way it runs a phase over them.
type Driver struct {
	// Start returns the driver's participants for the iteration, each
	// started from its own series (StartParticipant) or resumed, under
	// noise.
	Start func(noise eesum.NoiseConfig) []*eesum.Participant
	// Run runs one phase over the participants and returns how many
	// cycles it ran. Once it fails, Iterate touches no participant
	// again: a networked node stopped under a phase may still be
	// serving from its participant.
	Run func(phase Phase) (int, error)
	// Trace, when set, adds what only the driver can see to the trace
	// before the observer reads it; released is the filtered release,
	// lost means nil.
	Trace func(tr *IterationTrace, released []timeseries.Series)
}

// Iterate runs iteration it of Algorithms 1 and 3 through d, at the
// boundaries between its phases, and returns its trace and its live
// released centroids. centroids are the loop's live centroids (at least
// one), and epsIter the iteration's budget.
//
//   - Assignment step: every participant starts from its means
//     contribution with its noise-shares folded in. The noise
//     configuration prices the sum coordinates with the time-series Sum
//     sensitivity and the count coordinates with sensitivity 1,
//     splitting the iteration budget between them (disjoint clusters
//     compose in parallel, so one cluster's release prices them all).
//   - Algorithm 3 (a): the sum phase, the counter piggybacking.
//   - Algorithm 3 (b): every participant perturbs its own sum with its
//     own correction proposal, and the dissemination elects the
//     smallest identifier's vector for everyone.
//   - Algorithm 3 (c): the epidemic decryption of the elected vector.
//   - Convergence step: any τ key-shares of one vector decode to the
//     same plaintext, so every release must equal the first bit for
//     bit; one that differs fails the iteration, and the release filter
//     runs once, on that one release.
//
// A phase that ends with a participant unfinished fails with
// ErrPhaseBudget. For a driver of one participant, the election and
// the agreement hold by construction.
func (cfg Config) Iterate(it int, centroids []timeseries.Series, epsIter float64, d Driver) (*IterationTrace, []timeseries.Series, error) {
	k, n := len(centroids), len(centroids[0])
	trace := &IterationTrace{Iteration: it, CentroidsIn: k, EpsilonSpent: epsIter}
	ps := d.Start(eesum.NoiseConfig{Lambdas: NoiseLambdas(k, n, epsIter, cfg.DMin, cfg.DMax), NShares: cfg.NoiseShares})

	var err error
	if trace.SumCycles, err = d.Run(PhaseSum); err != nil {
		return nil, nil, err
	}
	for _, p := range ps {
		if err := p.Propose(); err != nil {
			return nil, nil, err
		}
	}
	if trace.DissCycles, err = d.Run(PhaseDissemination); err != nil {
		return nil, nil, err
	}
	if !elected(ps) {
		return nil, nil, fmt.Errorf("%w: correction dissemination did not converge in %d cycles", ErrPhaseBudget, trace.DissCycles)
	}
	for _, p := range ps {
		p.StartDecryption(k * (n + 1))
	}
	if trace.DecryptCycles, err = d.Run(PhaseDecryption); err != nil {
		return nil, nil, err
	}
	if open := unsettled(ps); open > 0 {
		return nil, nil, fmt.Errorf("%w: %d of %d participants gathered fewer than τ key-shares in %d decryption cycles", ErrPhaseBudget, open, len(ps), trace.DecryptCycles)
	}

	var vals []float64
	for i, p := range ps {
		v, err := p.Release()
		if err != nil {
			return nil, nil, err
		}
		trace.ShareApplications += p.Applications()
		if i == 0 {
			vals = v
		} else if !slices.EqualFunc(v, vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return nil, nil, fmt.Errorf("core: iteration %d: participant %d released other values than participant 0", it, i)
		}
	}
	released := cfg.Release(vals, k, n)
	next := kmeans.Compact(released)
	trace.CentroidsOut = len(next)
	if d.Trace != nil {
		d.Trace(trace, released)
	}
	if hook := cfg.Observer.Iteration; hook != nil {
		hook(*trace, next)
	}
	return trace, next, nil
}

// The convergence-step constants of Section 5.2 and footnote 8, and the
// gossip error target of the Theorem 3 exchange default. They are the
// same in every deployment, so no two participants can disagree on them.
const (
	sumShare   = 0.5  // share of an iteration's ε spent on the sums; the counts get the rest
	countFloor = 1    // a perturbed count below this makes its mean lost
	rangeSlack = 1    // a mean is aberrant outside [DMin, DMax] widened by this many range widths
	emaxTarget = 1e-6 // relative gossip error target (Theorem 3)
)

// BuildContribution is the assignment step every participant runs
// locally: assign row to the closest live centroid and build the
// k·(n+1) fixed-point contribution vector — the series in the chosen
// cluster's slots, an encoded one in its count slot, zeros elsewhere.
// Nil centroids (lost means) never attract assignments.
func BuildContribution(row timeseries.Series, centroids []timeseries.Series, codec homenc.Codec) []*big.Int {
	k, n := len(centroids), len(row)
	best, bestD2 := 0, math.Inf(1)
	for c, ctr := range centroids {
		if ctr == nil {
			continue
		}
		if d2 := row.Dist2(ctr); d2 < bestD2 {
			best, bestD2 = c, d2
		}
	}
	zero := big.NewInt(0)
	vec := make([]*big.Int, k*(n+1))
	for j := range vec {
		vec[j] = zero
	}
	base := best * (n + 1)
	for j, v := range row {
		vec[base+j] = codec.Encode(v)
	}
	vec[base+n] = codec.Encode(1)
	return vec
}

// StartParticipant binds participant index of the deployment env to an
// iteration, as eesum.NewParticipant does, and starts it from its
// assignment step: row's contribution under centroids, packed into the
// deployment's slot layout.
func StartParticipant(env *eesum.Env, index int, stream *randx.RNG, noise eesum.NoiseConfig, row timeseries.Series, centroids []timeseries.Series) *eesum.Participant {
	p := eesum.NewParticipant(env, index, stream, noise)
	p.Start(env.Pack.Pack(BuildContribution(row, centroids, env.Pack.Codec)))
	return p
}

// NoiseLambdas builds the per-variable Laplace scale vector of one
// iteration: the k·n sum slots use the time-series Sum sensitivity, the
// k count slots sensitivity 1, with the iteration budget split between
// them (disjoint clusters compose in parallel, so one cluster's release
// prices them all). Iterate derives it for both drivers, so every
// participant derives the identical scales.
func NoiseLambdas(k, n int, epsIter, dmin, dmax float64) []float64 {
	epsSum, epsCount := dp.SplitIteration(epsIter, sumShare)
	sens := dp.SumSensitivity(n, dmin, dmax)
	lambdas := make([]float64, k*(n+1))
	for c := 0; c < k; c++ {
		base := c * (n + 1)
		for j := 0; j < n; j++ {
			lambdas[base+j] = dp.LaplaceScale(sens, epsSum)
		}
		lambdas[base+n] = dp.LaplaceScale(1, epsCount)
	}
	return lambdas
}

// Release turns a decoded k·(n+1) value vector into centroids with the
// release filter (kmeans.Filter) at cfg's range and smoothing. Lost or
// aberrant means come back nil; vals is left as it is.
func (cfg Config) Release(vals []float64, k, n int) []timeseries.Series {
	sums, counts := make([]timeseries.Series, k), make([]float64, k)
	for c := range sums {
		base := c * (n + 1)
		sums[c] = timeseries.Series(vals[base : base+n]).Clone()
		counts[c] = vals[base+n]
	}
	var window int
	if cfg.Smooth {
		window = kmeans.SMAWindow(n)
	}
	return kmeans.NewFilter(cfg.DMin, cfg.DMax, rangeSlack, countFloor, window).Means(sums, counts)
}

// traceQuality computes the omniscient evaluation metrics (never part of
// the protocol): pre-perturbation inertia of the iteration's partition
// and post-perturbation inertia against the released centroids.
func (nw *Network) traceQuality(trace *IterationTrace, centroids, released []timeseries.Series) {
	a, err := kmeans.Assign(nw.data, centroids)
	if err != nil {
		return
	}
	trace.PreInertia = a.InertiaAgainst(a.Means())
	trace.PostInertia = a.InertiaAgainst(released)
}
