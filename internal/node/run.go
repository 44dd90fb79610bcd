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
// The iteration schedule is fixed (Exchanges + DissCycles +
// DecryptCycles per iteration, MaxIterations iterations or until the
// budget runs dry): with no global observer, participants stay in
// lockstep by construction rather than by agreement. The first
// iteration's released centroids are bit-identical to the in-memory
// simulator at the same seed and parameters; from the second iteration
// on each participant continues from its own decoded view (the
// simulator instead replays participant 0's view for everyone), so
// views may drift within the gossip-error envelope the paper's unicity
// argument bounds.
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
		res.TotalEpsilon = rz.totalBefore
		res.Traces = append(res.Traces, rz.traces...)
		if rz.totalBefore > 0 {
			if err := nd.acct.Spend(rz.totalBefore); err != nil {
				return nil, err
			}
		}
		perIter := nd.cfg.Proto.Exchanges + nd.cfg.Proto.DissCycles + nd.cfg.Proto.DecryptCycles
		for i := 0; i < (startIter-1)*perIter; i++ {
			_ = nd.sched.DrawCycle()
		}
		for it := 1; it < startIter; it++ {
			eesum.NodeNoiseStream(nd.protoRNG, nd.cfg.N, -1)
		}
	}
	for it := startIter; it <= nd.cfg.Proto.MaxIterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		epsIter := nd.cfg.Proto.Budget.Epsilon(it)
		if epsIter <= 0 {
			break // privacy budget exhausted
		}
		if err := nd.acct.Spend(epsIter); err != nil {
			return nil, err
		}
		nd.iterNow.Store(int64(it))
		// Journal the iteration boundary — except when resuming into
		// this very iteration, whose record (and checkpoints) the
		// journal already holds: appending it again would supersede
		// those checkpoints and make a second crash replay committed
		// exchanges.
		if nd.state != nil && (rz == nil || it != rz.iter) {
			if err := nd.state.saveIteration(iterationRecord{
				iter: it, epsIter: epsIter, totalBefore: res.TotalEpsilon,
				centroids: centroids, traces: res.Traces, counters: nd.counters.Snapshot(),
			}); err != nil {
				return nil, fmt.Errorf("node %d: journal write failed: %w", nd.cfg.Index, err)
			}
		}
		var rzIter *resumePoint
		if rz != nil && it == rz.iter && rz.pos != nil {
			rzIter = rz
		}
		trace, next, err := nd.iterate(it, centroids, epsIter, rzIter)
		if err != nil {
			if jerr := nd.journalErr(); jerr != nil {
				return nil, jerr
			}
			return nil, ctxErr(ctx, err)
		}
		res.TotalEpsilon += epsIter
		res.Traces = append(res.Traces, *trace)
		if len(kmeans.Compact(next)) == 0 {
			break // noise overwhelmed every centroid in this node's view
		}
		// Keep the full slot layout (lost means stay nil): participants
		// may disagree on which slots died, but the protocol dimensions
		// stay population-wide constants.
		centroids = next
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Centroids = kmeans.Compact(centroids)
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

// iterate runs one full protocol iteration over the wire. A non-nil rz
// resumes the iteration mid-flight from its journaled checkpoint: the
// restored state replaces the locally-built one, every slot the journal
// holds as committed is skipped (its merge is already in the restored
// state — re-executing it would double-apply), and the shared-seed
// noise draws the pre-crash run consumed are replayed and discarded so
// the stream cursor advances identically. Phase-boundary transitions
// the pre-crash run already performed (the correction proposal, the
// noise perturbation) keep their restored results.
func (nd *Node) iterate(it int, centroids []timeseries.Series, epsIter float64, rz *resumePoint) (*core.IterationTrace, []timeseries.Series, error) {
	k := len(centroids)
	n := len(nd.cfg.Series)
	trace := &core.IterationTrace{Iteration: it, CentroidsIn: len(kmeans.Compact(centroids)), EpsilonSpent: epsIter}

	// --- Noise streams: every participant derives the same family from
	// the shared seed and builds only stream Index (the simulator
	// materializes all of them). Deriving the family consumes base-RNG
	// draws, so a resumed iteration derives it too.
	myStream := eesum.NodeNoiseStream(nd.protoRNG, nd.cfg.N, nd.cfg.Index)
	noise := eesum.NoiseConfig{
		Lambdas: core.NoiseLambdas(k, n, epsIter, nd.cfg.Proto.SumShare, nd.cfg.Proto.DMin, nd.cfg.Proto.DMax),
		NShares: nd.cfg.Proto.NoiseShares,
	}
	var st *iterState
	if rz != nil {
		st = rz.st
		st.Resume(nd.env, nd.cfg.Index, myStream, noise)
	} else {
		// --- Assignment step (local, cleartext). The contribution is
		// packed into the deployment's shared slot layout before
		// encryption; the noise shares come from this node's own stream.
		st = eesum.NewParticipant(nd.env, nd.cfg.Index, myStream, noise)
		st.Start(nd.env.Pack.Pack(core.BuildContribution(nd.cfg.Series, centroids, nd.env.Pack.Codec)))
	}

	// --- Algorithm 3 (a): means and noise sums in lockstep, counter
	// piggybacking, over the wire.
	nd.phaseNow.Store(int64(phaseSum))
	nd.runPhase(it, phaseSum, nd.cfg.Proto.Exchanges, st, rz)
	trace.SumCycles = nd.cfg.Proto.Exchanges

	// --- Algorithm 3 (b): correction proposal from own stream, min-
	// identifier dissemination, local application. The counter freezes
	// when the sum phase ends, so a resume past that point replays the
	// proposal with the identical estimate.
	st.ProposeCorrection()
	nd.phaseNow.Store(int64(phaseDiss))
	nd.runPhase(it, phaseDiss, nd.cfg.Proto.DissCycles, st, rz)
	trace.DissCycles = nd.cfg.Proto.DissCycles
	if err := st.StartDecryption(); err != nil {
		return nil, nil, fmt.Errorf("node %d: %w", nd.cfg.Index, err)
	}

	// --- Algorithm 3 (c): epidemic threshold decryption over the wire.
	nd.phaseNow.Store(int64(phaseDec))
	nd.runPhase(it, phaseDec, nd.cfg.Proto.DecryptCycles, st, rz)
	trace.DecryptCycles = nd.cfg.Proto.DecryptCycles

	if nd.stopped.Load() {
		// A node stopped inside a settled tail holds all its key-shares:
		// without this it would go on to release, and to journal the next
		// iteration, after its death.
		return nil, nil, errStopped
	}
	if !st.Settled() {
		return nil, nil, fmt.Errorf("node %d: %w: gathered %d of %d key-shares in %d decryption cycles", nd.cfg.Index, core.ErrPhaseBudget, len(st.DecParts), nd.cfg.Scheme.Threshold(), nd.cfg.Proto.DecryptCycles)
	}
	vals, err := st.Release(k * (n + 1))
	if err != nil {
		return nil, nil, err
	}

	// --- Convergence step (local).
	next := core.Postprocess(vals, k, n, core.PostprocessParams{
		DMin: nd.cfg.Proto.DMin, DMax: nd.cfg.Proto.DMax,
		RangeSlack: nd.cfg.Proto.RangeSlack, CountFloor: nd.cfg.Proto.CountFloor,
		Smooth: nd.cfg.Proto.Smooth, SMAFraction: nd.cfg.Proto.SMAFraction,
	})
	released := kmeans.Compact(next)
	trace.CentroidsOut = len(released)
	if hook := nd.cfg.Proto.Observer.Iteration; hook != nil {
		hook(*trace, released)
	}
	return trace, next, nil
}

// errStopped is what a run returns when the node was closed under it.
var errStopped = errors.New("node: closed during the run")

// runPhase executes one phase's fixed cycle budget: every cycle's
// schedule is drawn from the mirror engine (identical on every
// participant), and this node's participations execute strictly in
// schedule order — until, in the decryption phase, a slot boundary finds
// the state settled and runTail takes the rest of the phase. A non-nil
// rz is the resume point: slots it holds as committed were executed (and
// journaled) by the pre-crash run and are skipped — the cycle is still
// drawn (the schedule cursor must advance) and the registry horizon
// still moves (stale deliveries from retrying peers get closed out
// instead of stranding connections).
func (nd *Node) runPhase(it, phase, cycles int, st *iterState, rz *resumePoint) {
	me := nd.cfg.Index
	for c := 0; c < cycles; c++ {
		if nd.stopped.Load() {
			return
		}
		sched := nd.sched.DrawCycle()
		for seq, ex := range sched {
			if ex.A != me && ex.B != me {
				continue
			}
			if nd.stopped.Load() {
				return
			}
			s := slot{iter: it, phase: phase, cycle: c, seq: seq}
			if rz.committed(s) {
				continue // already executed before the crash
			}
			if phase == phaseDec && st.Settled() {
				nd.runTail(s, sched, cycles, st, rz)
				return
			}
			if ex.A == me {
				nd.initiate(phase, st, ex.B, s, ex.Full)
			} else {
				nd.respond(phase, st, s, ex.A)
			}
		}
		nd.cycleDone(it, phase, c, cycles)
	}
}

// cycleDone moves the registry horizon past cycle c and reports it.
func (nd *Node) cycleDone(it, phase, c, cycles int) {
	nd.reg.advance(slot{iter: it, phase: phase, cycle: c + 1})
	if hook := nd.cfg.Proto.Observer.Phase; hook != nil {
		hook(it, core.Phase(phase), c+1, cycles)
	}
}

// runTail runs the rest of the decryption phase, from own slot `from`
// of the already-drawn cycle cur on, for a participant whose state is
// settled — read-only until the phase ends, so its remaining exchanges
// commute with one another on this side. The remaining cycles are drawn
// up front (the schedule cursor ends where the serial walk would leave
// it) and the state is sealed and published: the responder slots are
// served passively, each by the goroutine that delivers its request and
// in whatever order they arrive, while this loop walks the initiator
// slots — serially and in slot order, so the dial order per directed
// pair, and with it every seeded fault verdict, is the serial
// execution's — and then waits once for whatever responder slots are
// still open. Cycles are reported exactly once and in order, each as
// soon as every own slot up to it is done.
func (nd *Node) runTail(from slot, cur []sim.Scheduled, cycles int, st *iterState, rz *resumePoint) {
	me, it := nd.cfg.Index, from.iter
	type dial struct {
		s    slot
		peer int
		full bool
	}
	// A participant initiates once per cycle and is picked about once.
	dials := make([]dial, 0, cycles-from.cycle)
	slab := make([]tailSlot, 0, 2*(cycles-from.cycle))
	for c := from.cycle; c < cycles; c++ {
		sched, first := cur, from.seq
		if c > from.cycle {
			sched, first = nd.sched.DrawCycle(), 0
		}
		for seq := first; seq < len(sched); seq++ {
			ex := sched[seq]
			s := slot{iter: it, phase: phaseDec, cycle: c, seq: seq}
			if (ex.A != me && ex.B != me) || rz.committed(s) {
				continue
			}
			if ex.A == me {
				dials = append(dials, dial{s, ex.B, ex.Full})
			} else {
				slab = append(slab, tailSlot{s: s, from: ex.A, st: st})
			}
		}
	}
	tails := make([]*tailSlot, len(slab))
	for i := range slab {
		tails[i] = &slab[i]
	}
	seal(st)
	for _, cl := range nd.reg.settle(tails) {
		nd.servePassive(cl.t, cl.in)
	}

	// reported cycles are done; cycle c follows once the dials have moved
	// past it and no responder slot up to it is still open.
	reported := from.cycle
	report := func(through int) {
		for reported < through && !nd.reg.tailOpenBefore(slot{iter: it, phase: phaseDec, cycle: reported + 1}) {
			if hook := nd.cfg.Proto.Observer.Phase; hook != nil {
				hook(it, core.Phase(phaseDec), reported+1, cycles)
			}
			reported++
		}
	}
	for _, d := range dials {
		if nd.stopped.Load() {
			return
		}
		report(d.s.cycle)
		nd.initiate(phaseDec, st, d.peer, d.s, d.full)
	}
	nd.awaitTail(tails, func() { report(cycles) })
	if nd.stopped.Load() {
		return
	}
	report(cycles)
	nd.reg.advance(slot{iter: it, phase: phaseDec, cycle: cycles})
}
