// Package sim is the peer-to-peer simulation substrate Chiaroscuro's
// protocols run on — the role PeerSim (cycle-driven mode) plays in the
// paper's evaluation (Section 6.1). It provides:
//
//   - a cycle-based engine: in each cycle every connected node initiates
//     one gossip exchange with a peer drawn from its local view;
//   - pluggable peer sampling: an idealized uniform sampler (the paper's
//     "Tendencies" curves) and a Newscast-style bounded view of 30
//     entries (the paper's "Real. Case" curves, Section 6.1.4);
//   - a churn model: every node is independently disconnected with a
//     fixed probability, re-sampled each cycle (Section 6.1.5), with an
//     optional mid-exchange failure mode where the initiator's update
//     applies but the responder's does not;
//   - per-node message and byte accounting for the latency experiments
//     (Figures 3(b), 4(a), 4(b)).
package sim

import (
	"errors"
	"slices"

	"chiaroscuro/internal/parallel"
	"chiaroscuro/internal/randx"
)

// NodeID identifies a simulated participant.
type NodeID = int

// Sampler provides each node's local view (Section 3.2: the list of
// random participants that bootstraps gossip exchanges).
type Sampler interface {
	// Init prepares views for n nodes.
	Init(n int, rng *randx.RNG)
	// Pick draws an exchange target for node from, avoiding self.
	// ok is false when the node has no usable peer this cycle.
	Pick(from NodeID, alive []bool, rng *randx.RNG) (peer NodeID, ok bool)
	// AfterExchange lets the sampler update views (Newscast merges).
	AfterExchange(a, b NodeID, rng *randx.RNG)
}

// Exchange is one push-pull gossip interaction. full reports whether the
// responder's half of the update applied too (false = the responder
// disconnected mid-exchange; the protocol must apply only the
// initiator-side effect, which is how churn corrupts in-flight state).
type Exchange func(initiator, responder NodeID, full bool)

// Config parametrizes an Engine.
type Config struct {
	N            int     // population size
	Seed         uint64  // RNG seed (runs are reproducible per seed)
	Churn        float64 // per-cycle probability a node is disconnected
	MidFailure   bool    // model half-completed exchanges under churn
	MessageBytes int     // wire size of one protocol message (accounting)

	// MidFailureWindow is the fraction of a cycle during which a
	// responder's disconnection corrupts an in-flight exchange (the
	// initiator applies its update, the responder does not). The
	// probability of a half-completed exchange is Churn ×
	// MidFailureWindow. Zero means the default of 0.05: disconnections
	// are per-cycle events, but only those landing inside the short
	// exchange window corrupt state.
	MidFailureWindow float64

	// Workers bounds the worker pool of the parallel cycle mode
	// (RunCycleOn): 0 uses the process-wide parallel.Workers() default,
	// 1 forces fully serial cycles. Results are identical per seed for
	// any worker count.
	Workers int

	// OnChurn, when set, observes every churn resampling: the engine
	// cycle about to run (0-based, cumulative across phases) and how
	// many of the N nodes it disconnected. It fires only when Churn > 0,
	// runs on the scheduling goroutine, and consumes no engine RNG — a
	// run with the hook is draw-for-draw identical to one without.
	OnChurn func(cycle, down int)
}

// Engine drives cycles of gossip exchanges.
type Engine struct {
	cfg     Config
	rng     *randx.RNG
	sampler Sampler
	alive   []bool
	workers int

	msgs  []int64 // messages sent per node
	bytes []int64 // bytes sent per node
	cycle int

	// Parallel cycle mode scratch state (see parallel.go).
	sched   []Scheduled
	mark    []int
	markGen int
}

// New creates an engine over n nodes with the given sampler.
func New(cfg Config, sampler Sampler) (*Engine, error) {
	if cfg.N < 2 {
		return nil, errors.New("sim: population must be at least 2")
	}
	if cfg.Churn < 0 || cfg.Churn >= 1 {
		return nil, errors.New("sim: churn must be in [0,1)")
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = parallel.Workers()
	}
	rng := randx.New(cfg.Seed, 0xC1A0)
	sampler.Init(cfg.N, rng)
	e := &Engine{
		cfg:     cfg,
		rng:     rng,
		sampler: sampler,
		alive:   make([]bool, cfg.N),
		workers: workers,
		msgs:    make([]int64, cfg.N),
		bytes:   make([]int64, cfg.N),
	}
	for i := range e.alive {
		e.alive[i] = true
	}
	return e, nil
}

// N returns the population size.
func (e *Engine) N() int { return e.cfg.N }

// Cycle returns the number of completed cycles.
func (e *Engine) Cycle() int { return e.cycle }

// RNG exposes the engine RNG so protocols can derive per-node sources.
func (e *Engine) RNG() *randx.RNG { return e.rng }

// Alive reports whether a node is connected in the current cycle.
func (e *Engine) Alive(id NodeID) bool { return e.alive[id] }

// resampleChurn re-draws the connected set (uniform independent
// disconnections, Section 6.1.5).
func (e *Engine) resampleChurn() {
	if e.cfg.Churn == 0 {
		return
	}
	down := 0
	for i := range e.alive {
		e.alive[i] = !e.rng.Bernoulli(e.cfg.Churn)
		if !e.alive[i] {
			down++
		}
	}
	if e.cfg.OnChurn != nil {
		e.cfg.OnChurn(e.cycle, down)
	}
}

// RunCycle executes one cycle: every connected node, in random order,
// initiates one exchange with a peer from its view. It returns the
// number of exchanges that took place.
//
// The cycle's schedule is pre-drawn (see schedule), so RunCycle consumes
// the engine RNG exactly like the parallel path and DrawCycle do —
// protocol exchanges themselves never touch the engine RNG.
func (e *Engine) RunCycle(x Exchange) int {
	sched := e.schedule()
	for _, s := range sched {
		x(s.A, s.B, s.Full)
	}
	e.cycle++
	return len(sched)
}

// Scheduled is one pre-drawn exchange of a cycle: initiator A contacts
// responder B; Full=false marks a half-completed exchange (the responder
// disconnects mid-exchange and never applies its update, Section 6.1.5).
type Scheduled struct {
	A, B NodeID
	Full bool
}

// DrawCycle advances the engine by one cycle — churn resampling,
// initiator permutation, peer picks, mid-failure draws, accounting and
// sampler view updates, in the exact order RunCycle performs them — but
// executes no protocol exchanges, returning the schedule instead.
//
// This is the replication hook for the networked runtime: every peer
// holding the same seed and configuration mirrors an Engine, draws the
// same schedule, and executes its own participations over real
// connections. A run driven by DrawCycle schedules is exchange-for-
// exchange identical to a RunCycle simulation at the same seed.
func (e *Engine) DrawCycle() []Scheduled {
	sched := slices.Clone(e.schedule())
	e.cycle++
	return sched
}

// RunCycles runs the given number of cycles.
func (e *Engine) RunCycles(cycles int, x Exchange) {
	for i := 0; i < cycles; i++ {
		e.RunCycle(x)
	}
}

// AvgMessages returns the average number of messages sent per node.
func (e *Engine) AvgMessages() float64 {
	var total int64
	for _, m := range e.msgs {
		total += m
	}
	return float64(total) / float64(e.cfg.N)
}

// AvgBytes returns the average number of bytes sent per node.
func (e *Engine) AvgBytes() float64 {
	var total int64
	for _, b := range e.bytes {
		total += b
	}
	return float64(total) / float64(e.cfg.N)
}

// Messages returns the per-node sent-message counters (live slice).
func (e *Engine) Messages() []int64 { return e.msgs }
