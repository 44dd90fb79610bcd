package chiaroscuro

import (
	"sync"
	"sync/atomic"

	"chiaroscuro/internal/core"
)

// Event is a typed notification from a running Job, delivered through
// Job.Events. The concrete types are IterationReleased, PhaseProgress,
// Churn and Done; switch on them.
//
// The paper's Diptych discloses a cleartext, differentially private
// centroid set per k-means iteration by design (Section 4) — the event
// stream surfaces exactly that disclosure as it happens, plus the
// progress a production deployment needs to observe (phase cycles,
// churn), instead of making callers wait for the whole run.
type Event interface{ isEvent() }

// Phase identifies one of the three gossip phases of a distributed
// protocol iteration (Algorithm 3).
type Phase int

const (
	// PhaseSum is the lockstep encrypted means/noise gossip sum.
	PhaseSum Phase = Phase(core.PhaseSum)
	// PhaseDissemination is the min-identifier correction dissemination.
	PhaseDissemination Phase = Phase(core.PhaseDissemination)
	// PhaseDecryption is the epidemic threshold decryption.
	PhaseDecryption Phase = Phase(core.PhaseDecryption)
)

// String returns the phase name.
func (p Phase) String() string { return core.Phase(p).String() }

// IterationReleased reports one iteration's released centroids — the
// cleartext, differentially private view every participant obtains
// after the threshold decryption (or after the local perturbation in
// the centralized modes). One event fires per protocol iteration, as
// soon as the release exists.
//
// EpsilonSpent and EpsilonTotal together give an observer the complete
// per-release budget accounting: what this release cost, and how much
// of the global ε the run has disclosed up to and including it. That
// is exactly the bookkeeping an honest-but-curious observer performs
// (and what internal/attack replays) — publishing it here makes the
// leakage surface explicit instead of reconstructable only from the
// terminal Result.TotalEpsilon aggregate.
type IterationReleased struct {
	Iteration    int      // 1-based
	Centroids    []Series // released centroids (shared with the run; do not mutate)
	EpsilonSpent float64  // privacy budget this iteration consumed (0 in Centralized mode)
	// EpsilonTotal is the cumulative privacy budget the run has consumed
	// through this release, i.e. the running sum of EpsilonSpent over
	// the iterations released so far. After the final release it equals
	// Result.TotalEpsilon. Always 0 in Centralized mode.
	EpsilonTotal float64
	// Inertia is the iteration's quality metric when the mode computes
	// one: the intra-cluster inertia in Centralized mode, the released-
	// centroid (post) inertia in CentralizedDP and in Simulated mode
	// under TraceQuality; 0 otherwise. Distributed quality metrics are
	// omniscient evaluation aids, never protocol inputs.
	Inertia float64
}

// PhaseProgress reports one completed gossip cycle of a distributed
// iteration's phase: Cycle cycles of the phase's budget of Of are done.
// Of is 0 when the phase length is adaptive (convergence-determined —
// the simulator's default dissemination and decryption phases): the
// phase ends when the protocol converges, not at a known cycle count.
// Centralized modes emit no phase progress. In Networked mode the
// events report participant 0's progress.
type PhaseProgress struct {
	Iteration int
	Phase     Phase
	Cycle, Of int
}

// Churn reports one churn observation. Reason ChurnModel events are the
// Section 6.1.5 churn model's per-cycle resampling: how many of the
// population's nodes it disconnected for that cycle (fires when
// Options.Churn > 0; Cycle counts engine cycles, cumulative across
// phases and iterations). Reason ChurnEvicted events fire in Networked
// mode when the fault policy's peer suspicion makes a node evict an
// unreachable peer (Disconnected counts the evicted peers,
// always 1 per event). Reason ChurnResumed events are the eviction's
// inverse: a peer relaunched from its crash-recovery journal announced
// itself and was reinstated (Disconnected counts the reinstated peers,
// always 1 per event).
type Churn struct {
	Iteration    int
	Cycle        int
	Disconnected int
	Reason       string // ChurnModel, ChurnEvicted or ChurnResumed
}

// Churn reasons.
const (
	// ChurnModel marks the churn model's per-cycle disconnection draw.
	ChurnModel = core.ChurnModel
	// ChurnEvicted marks a peer-suspicion eviction (Networked mode with
	// FaultPolicy.SuspicionK > 0).
	ChurnEvicted = core.ChurnEvicted
	// ChurnResumed marks a crash-suspicion reversal: an evicted peer
	// came back from its journal and rejoined the population mid-run.
	ChurnResumed = core.ChurnResumed
)

// Done is the terminal event of every run: the stream ends right after
// it. Err mirrors what Job.Run returns (nil on success,
// context.Canceled after a cancellation).
type Done struct {
	Err error
}

func (IterationReleased) isEvent() {}
func (PhaseProgress) isEvent()     {}
func (Churn) isEvent()             {}
func (Done) isEvent()              {}

// eventBus fans events out to the Job's subscribers.
//
// The no-subscriber path must cost nothing: every emission site first
// loads one atomic flag and returns — no event value is built, nothing
// escapes, zero allocations (BenchmarkEventBusNoSubscriber pins this).
// With subscribers attached, delivery blocks per subscriber until the
// event is buffered, consumed, or the subscriber is gone — a consumer
// that stops reading without breaking out of its loop eventually
// applies backpressure to the run rather than losing events.
type eventBus struct {
	subscribed atomic.Bool // fast-path gate: any subscriber attached?

	mu     sync.Mutex
	subs   []*subscriber
	closed bool
	final  Event // the Done event, for subscriptions made after the run
}

// subscriber buffers events for one Events() stream. gone is closed
// when the stream stops consuming (break / return), releasing any
// emitter blocked on the buffer.
type subscriber struct {
	ch   chan Event
	gone chan struct{}
	once sync.Once
}

func (s *subscriber) cancel() { s.once.Do(func() { close(s.gone) }) }

func newEventBus() *eventBus { return &eventBus{} }

func (b *eventBus) subscribe() *subscriber {
	s := &subscriber{ch: make(chan Event, 64), gone: make(chan struct{})}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		// The run already finished: deliver the terminal event only.
		if b.final != nil {
			s.ch <- b.final
		}
		close(s.ch)
		return s
	}
	b.subs = append(b.subs, s)
	b.subscribed.Store(true)
	return s
}

func (b *eventBus) unsubscribe(s *subscriber) {
	s.cancel()
	b.mu.Lock()
	for i, x := range b.subs {
		if x == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.subscribed.Store(len(b.subs) > 0)
	b.mu.Unlock()
}

// emit delivers ev to every current subscriber. Callers gate on
// b.subscribed before building ev.
func (b *eventBus) emit(ev Event) {
	b.mu.Lock()
	subs := append([]*subscriber(nil), b.subs...)
	b.mu.Unlock()
	for _, s := range subs {
		select {
		case s.ch <- ev:
		case <-s.gone:
		}
	}
}

// close delivers the terminal event and ends every stream. Later
// subscriptions see only the terminal event.
func (b *eventBus) close(final Event) {
	b.mu.Lock()
	subs := b.subs
	b.subs = nil
	b.closed = true
	b.final = final
	b.subscribed.Store(false)
	b.mu.Unlock()
	for _, s := range subs {
		select {
		case s.ch <- final:
		case <-s.gone:
		}
		close(s.ch)
	}
}

// emitter is the hook surface the engines feed: one self-gating method
// per event type, safe to call unconditionally from the hot loops.
// It also carries the run's cumulative ε accounting so every
// IterationReleased can report EpsilonTotal; the accumulation happens
// before the subscriber gate so a mid-run subscriber still sees the
// correct running total (a float add, so the no-subscriber path stays
// allocation-free).
type emitter struct {
	bus      *eventBus
	epsTotal float64
}

func (e *emitter) active() bool { return e.bus.subscribed.Load() }

func (e *emitter) iteration(it int, centroids []Series, eps, inertia float64) {
	e.epsTotal += eps
	if !e.active() {
		return
	}
	e.bus.emit(IterationReleased{Iteration: it, Centroids: centroids, EpsilonSpent: eps, EpsilonTotal: e.epsTotal, Inertia: inertia})
}

func (e *emitter) phase(it int, p Phase, cycle, of int) {
	if !e.active() {
		return
	}
	e.bus.emit(PhaseProgress{Iteration: it, Phase: p, Cycle: cycle, Of: of})
}

func (e *emitter) churn(it, cycle, down int, reason string) {
	if !e.active() {
		return
	}
	e.bus.emit(Churn{Iteration: it, Cycle: cycle, Disconnected: down, Reason: reason})
}
