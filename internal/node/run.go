package node

import (
	"context"
	"errors"
	"fmt"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/sim"
	"chiaroscuro/internal/timeseries"
)

// Run joins the population (if Join was not called yet) and drives the
// full clustering protocol to completion, returning this participant's
// own released view.
//
// kmeans.Loop decides how many iterations run, applies θ and charges
// each iteration to the node's accountant; the node is its release
// source: it journals each iteration boundary and hands back its live
// centroids, lost means dropped, as the simulator does. A resumed node
// re-enters the loop at its journaled iteration. The schedule is fixed
// (Exchanges + DissCycles + DecryptCycles per iteration): with no
// global observer, participants stay in lockstep by construction rather
// than by agreement. Every participant decodes the one elected vector,
// so every release is bit-identical to the in-memory simulator's at
// the same seed and parameters, and θ stops every participant at the
// same iteration.
func (nd *Node) Run() (*Result, error) {
	return nd.RunContext(context.Background())
}

// RunContext is Run with cancellation: when ctx is cancelled the node
// shuts down — listener, live connections and loops included — and
// RunContext returns ctx.Err(). The node cannot be reused afterwards
// (a cancelled participant has left the population for good).
func (nd *Node) RunContext(ctx context.Context) (*Result, error) {
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				_ = nd.Close()
			case <-watchDone:
			}
		}()
	}
	if nd.book.Size() < nd.cfg.N {
		if err := nd.Join(); err != nil {
			return nil, ctxErr(ctx, err)
		}
	}
	centroids := kmeans.Compact(nd.cfg.Proto.InitCentroids)
	res := &Result{}
	startIter := 1
	rz := nd.resume
	nd.resume = nil
	if rz != nil {
		// Crash recovery: re-enter the run where the journal left it.
		// The announcement sweep lifts suspicion evictions across the
		// population before any exchange is re-attempted, then the loop
		// variables, the privacy accountant and the shared-seed RNG
		// cursor are replayed to their pre-crash positions — the journal
		// stores results, not randomness, so the RNG state is recovered
		// by re-drawing (and discarding) what the completed iterations
		// consumed.
		nd.resumeSweep()
		startIter = rz.iter
		centroids = rz.centroids
		res.Traces = append(res.Traces, rz.traces...)
		if err := nd.acct.Spend(rz.totalBefore); err != nil {
			return nil, err
		}
		perIter := nd.cfg.Proto.Exchanges + nd.cfg.Proto.DissCycles + nd.cfg.Proto.DecryptCycles
		nd.sched.DrawCycles((startIter - 1) * perIter)
		for it := 1; it < startIter; it++ {
			eesum.NodeNoiseStream(nd.protoRNG, nd.cfg.N, -1)
		}
	}
	loop := kmeans.Loop{MaxIterations: nd.cfg.Proto.MaxIterations, Threshold: nd.cfg.Proto.Threshold, Budget: nd.cfg.Proto.Budget, Acct: nd.acct}
	out, err := loop.Run(ctx, startIter, centroids, func(it int, cur []timeseries.Series, epsIter float64) ([]timeseries.Series, bool, error) {
		nd.iterNow.Store(int64(it))
		// Journal the iteration boundary — except when resuming into
		// this very iteration, whose record (and checkpoints) the
		// journal already holds: appending it again would supersede
		// those checkpoints and make a second crash replay committed
		// exchanges.
		if nd.state != nil && (rz == nil || it != rz.iter) {
			if err := nd.state.saveIteration(iterationRecord{
				iter: it, epsIter: epsIter, totalBefore: nd.acct.Spent(),
				centroids: cur, traces: res.Traces, counters: nd.counters.Snapshot(),
			}); err != nil {
				return nil, false, fmt.Errorf("node %d: journal write failed: %w", nd.cfg.Index, err)
			}
		}
		var rzIter *resumePoint
		if rz != nil && it == rz.iter && rz.pos != nil {
			rzIter = rz
		}
		trace, next, err := nd.iterate(it, cur, epsIter, rzIter)
		if err != nil {
			if jerr := nd.journalErr(); jerr != nil {
				return nil, false, jerr
			}
			return nil, false, ctxErr(ctx, fmt.Errorf("node %d: %w", nd.cfg.Index, err))
		}
		res.Traces = append(res.Traces, *trace)
		return next, false, nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Centroids, res.TotalEpsilon, res.Converged = out.Centroids, nd.acct.Spent(), out.Converged
	res.AvgMessages = nd.sched.AvgMessages()
	res.AvgBytes = nd.sched.AvgBytes()
	res.Counters = nd.counters.Snapshot()
	return res, nil
}

// ctxErr prefers the context's error: a cancelled run fails all over
// the place (timed-out exchanges, missing key-shares), and every such
// symptom must surface as the cancellation that caused it.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// iterate runs one protocol iteration over the wire, through
// core.Config.Iterate: the node is a driver of one participant, and runs
// each phase through its slot walk. A non-nil rz resumes the iteration
// mid-flight from its journaled checkpoint: the restored state replaces
// the locally-built one, every slot the journal holds as committed is
// skipped (its merge is already in the restored state — re-executing it
// would double-apply), and the phase-boundary transitions the pre-crash
// run already performed (the correction proposal, the decryption start)
// keep their restored results while their draws are replayed.
func (nd *Node) iterate(it int, centroids []timeseries.Series, epsIter float64, rz *resumePoint) (*core.IterationTrace, []timeseries.Series, error) {
	var st *iterState
	return nd.cfg.Proto.Iterate(it, centroids, epsIter, core.Driver{
		Start: func(noise eesum.NoiseConfig) []*eesum.Participant {
			// Every participant derives the same family of noise streams
			// from the shared seed and builds only stream Index (the
			// simulator materializes all of them). Deriving the family
			// consumes base-RNG draws, so a resumed iteration derives it
			// too.
			stream := eesum.NodeNoiseStream(nd.protoRNG, nd.cfg.N, nd.cfg.Index)
			if rz != nil {
				st = rz.st
				st.Resume(nd.env, nd.cfg.Index, stream, noise)
			} else {
				st = core.StartParticipant(nd.env, nd.cfg.Index, stream, noise, nd.cfg.Series, centroids)
			}
			return []*eesum.Participant{st}
		},
		Run: func(phase core.Phase) (int, error) {
			cycles := [...]int{nd.cfg.Proto.Exchanges, nd.cfg.Proto.DissCycles, nd.cfg.Proto.DecryptCycles}[phase]
			nd.phaseNow.Store(int64(phase))
			return cycles, nd.runPhase(it, int(phase), cycles, st, rz)
		},
	})
}

// errStopped is what a run returns when the node was closed under it.
var errStopped = errors.New("node: closed during the run")

// runPhase executes one phase's fixed cycle budget: it draws the
// phase's cycles from the mirror engine (identical on every participant)
// and walks this node's participations in schedule order. In the
// decryption phase, the first own slot that finds the state settled —
// read-only until the phase ends, so its remaining exchanges commute on
// this side — opens every remaining responder slot at once (openTail);
// the walk goes on through the initiator slots alone, serially, so the
// dial order per directed pair, and with it every seeded fault verdict,
// is the serial execution's, and awaitTail then waits once for whatever
// responder slots are still open. A non-nil rz is the resume point:
// slots it holds as committed were executed (and journaled) by the
// pre-crash run and are skipped; their cycles are still reported and the
// registry horizon still moves past them (stale deliveries from retrying
// peers get closed out instead of stranding connections).
//
// A node stopped under the phase returns errStopped: its waits return
// at once, so a serve may still be in flight, and it owns st — the
// caller must touch st no more. (A node stopped inside a settled tail
// also holds all its key-shares: it would otherwise go on to release,
// and to journal the next iteration, after its death.)
func (nd *Node) runPhase(it, phase, cycles int, st *iterState, rz *resumePoint) error {
	me := nd.cfg.Index
	sched := nd.sched.DrawCycles(cycles)
	// reported cycles are done; cycle c follows once the walk has moved
	// past it and no responder slot up to it is still open, and the
	// registry horizon moves with it.
	reported := 0
	report := func(through int) {
		for reported < through {
			next := slot{iter: it, phase: phase, cycle: reported + 1}
			if nd.reg.tailOpenBefore(next) {
				return
			}
			nd.reg.advance(next)
			if hook := nd.cfg.Proto.Observer.Phase; hook != nil {
				hook(it, core.Phase(phase), reported+1, cycles)
			}
			reported++
		}
	}
	var tails []*tailSlot
	settled := false
walk:
	for c, cyc := range sched {
		for seq, ex := range cyc {
			if ex.A != me && ex.B != me {
				continue
			}
			if nd.stopped.Load() {
				break walk
			}
			s := slot{iter: it, phase: phase, cycle: c, seq: seq}
			if rz.committed(s) {
				continue // already executed before the crash
			}
			report(c)
			if !settled && phase == phaseDec && st.Settled() {
				settled, tails = true, nd.openTail(s, sched, st, rz)
			}
			if ex.A == me {
				nd.initiate(phase, st, ex.B, s, ex.Full)
			} else if !settled {
				nd.respond(phase, st, s, ex.A)
			}
		}
	}
	if nd.stopped.Load() {
		return errStopped
	}
	nd.awaitTail(tails, func() { report(cycles) })
	if nd.stopped.Load() {
		return errStopped
	}
	report(cycles)
	return nil
}

// openTail opens every own responder slot of a settled decryption phase
// from slot from on that rz does not hold as committed, and serves the
// requests already parked for them.
func (nd *Node) openTail(from slot, sched [][]sim.Scheduled, st *iterState, rz *resumePoint) []*tailSlot {
	me := nd.cfg.Index
	// A participant is picked about once a cycle.
	slab := make([]tailSlot, 0, 2*(len(sched)-from.cycle))
	for c := from.cycle; c < len(sched); c++ {
		for seq, ex := range sched[c] {
			s := slot{iter: from.iter, phase: phaseDec, cycle: c, seq: seq}
			if ex.B == me && !s.before(from) && !rz.committed(s) {
				slab = append(slab, tailSlot{s: s, from: ex.A, st: st})
			}
		}
	}
	tails := make([]*tailSlot, len(slab))
	for i := range slab {
		tails[i] = &slab[i]
	}
	for _, cl := range nd.reg.settle(tails) {
		nd.servePassive(cl.t, cl.in)
	}
	return tails
}
