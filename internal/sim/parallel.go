// Parallel cycle mode: the engine pre-draws a cycle's full exchange
// schedule from its RNG — consuming it in exactly the order the serial
// RunCycle would, so runs stay reproducible per seed — and then
// executes conflict-free batches of exchanges (no node appears in two
// in-flight exchanges) on the shared worker pool. Protocol states opt
// in by implementing ConcurrentExchanger; anything else falls back to
// the serial path with identical results.
package sim

import (
	"chiaroscuro/internal/parallel"
)

// Exchanger is a protocol state driven by engine cycles.
type Exchanger interface {
	Exchange(initiator, responder NodeID, full bool)
}

// ConcurrentExchanger is the opt-in marker for the parallel cycle mode:
// a protocol whose Exchange touches only the state of its two nodes
// (and whose shared dependencies are concurrency-safe) may run
// node-disjoint exchanges concurrently. gossip.Sum, gossip.Dissemination
// and internal/core's sum and decryption exchangers over eesum
// participants opt in.
type ConcurrentExchanger interface {
	Exchanger
	ConcurrentExchangeSafe() bool
}

// RunCycleOn executes one cycle of p, concurrently when p opts in via
// ConcurrentExchanger and the engine has more than one worker, serially
// otherwise. Both paths draw the same RNG sequence and produce the same
// protocol state per seed. It returns the number of exchanges.
func (e *Engine) RunCycleOn(p Exchanger) int {
	if c, ok := p.(ConcurrentExchanger); ok && c.ConcurrentExchangeSafe() && e.workers > 1 {
		return e.runCycleParallel(p)
	}
	return e.RunCycle(p.Exchange)
}

// schedule pre-draws one cycle: churn resampling, initiator
// permutation, peer picks, mid-exchange failure draws, message
// accounting and sampler view updates all happen here, in the serial
// cycle's exact order — the protocol exchanges are the only work left
// to execute.
func (e *Engine) schedule() []Scheduled {
	e.resampleChurn()
	sched := e.sched[:0]
	order := e.rng.Perm(e.cfg.N)
	for _, a := range order {
		if !e.alive[a] {
			continue
		}
		b, ok := e.sampler.Pick(a, e.alive, e.rng)
		if !ok {
			continue
		}
		full := true
		if e.cfg.MidFailure && e.cfg.Churn > 0 {
			window := e.cfg.MidFailureWindow
			if window == 0 {
				window = 0.05
			}
			if e.rng.Bernoulli(e.cfg.Churn * window) {
				full = false
			}
		}
		sched = append(sched, Scheduled{A: a, B: b, Full: full})
		e.msgs[a]++
		e.msgs[b]++
		e.bytes[a] += int64(e.cfg.MessageBytes)
		e.bytes[b] += int64(e.cfg.MessageBytes)
		e.sampler.AfterExchange(a, b, e.rng)
	}
	e.sched = sched
	return sched
}

// runCycleParallel executes a pre-drawn schedule in maximal
// conflict-free batches: exchanges are taken in schedule order until
// one touches a node already busy in the batch, the batch runs
// concurrently on the worker pool, and the next batch starts. Within a
// batch all node pairs are disjoint, so any execution order yields the
// state the serial cycle would; across batches the schedule order is
// preserved.
func (e *Engine) runCycleParallel(p Exchanger) int {
	sched := e.schedule()
	if e.mark == nil {
		e.mark = make([]int, e.cfg.N)
	}
	for start := 0; start < len(sched); {
		e.markGen++
		end := start
		for end < len(sched) {
			s := sched[end]
			if e.mark[s.A] == e.markGen || e.mark[s.B] == e.markGen {
				break
			}
			e.mark[s.A], e.mark[s.B] = e.markGen, e.markGen
			end++
		}
		batch := sched[start:end]
		parallel.ForEach(e.workers, len(batch), func(i int) {
			p.Exchange(batch[i].A, batch[i].B, batch[i].Full)
		})
		start = end
	}
	e.cycle++
	return len(sched)
}
