package node

import (
	"sync"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/sim"
)

// ScheduleSource materializes the deterministic exchange schedule — the
// networked runtime's mirror of sim.Engine — once, and serves it to any
// number of co-located participants through per-participant cursors
// (View). A classic single daemon owns a private source; a mux.Host
// shares one source across all its virtual nodes, so a thousand
// co-located peers draw the schedule (and pay its RNG work and memory)
// once instead of a thousand times.
//
// Cycles are drawn lazily, on first demand from the fastest cursor, and
// retained: participants progress at different speeds, and every cursor
// must see the identical draw for cycle i.
type ScheduleSource struct {
	mu      sync.Mutex
	eng     *sim.Engine
	perIter int // cycles per protocol iteration, for churn reporting
	cycles  [][]sim.Scheduled
	// churn, when bound, observes churn resamplings with the iteration
	// the cycle belongs to. Invoked with mu held, on the goroutine that
	// first demands the cycle.
	churn func(iter, cycle, down int)
}

// NewScheduleSource builds the shared schedule mirror from the
// normalized protocol parameters, exactly as the simulator does.
func NewScheduleSource(proto core.Config, np, seriesDim int, sch homenc.Scheme, pack homenc.PackedCodec) (*ScheduleSource, error) {
	src := &ScheduleSource{perIter: proto.Exchanges + proto.DissCycles + proto.DecryptCycles}
	if src.perIter <= 0 {
		src.perIter = 1
	}
	ecfg := core.MirrorEngineConfig(proto, np, seriesDim, sch, pack)
	ecfg.OnChurn = func(cycle, down int) {
		// Runs inside cycle() with src.mu held; the cumulative cycle
		// index recovers the iteration the resampling belongs to.
		if src.churn != nil {
			src.churn(cycle/src.perIter+1, cycle, down)
		}
	}
	eng, err := sim.New(ecfg, proto.NewSampler())
	if err != nil {
		return nil, err
	}
	src.eng = eng
	return src, nil
}

// bindChurn registers the churn observer (the one participant carrying
// the run's Observer; later binds replace earlier ones).
func (src *ScheduleSource) bindChurn(fn func(iter, cycle, down int)) {
	src.mu.Lock()
	src.churn = fn
	src.mu.Unlock()
}

// draw returns the schedules of cumulative cycles [from, from+n),
// drawing forward as needed, as a capped subslice of the retained
// schedules: a drawn cycle never changes, so the subslice stays valid
// (and is never written through) as later draws grow the source.
func (src *ScheduleSource) draw(from, n int) [][]sim.Scheduled {
	src.mu.Lock()
	defer src.mu.Unlock()
	for len(src.cycles) < from+n {
		src.cycles = append(src.cycles, src.eng.DrawCycle())
	}
	return src.cycles[from : from+n : from+n]
}

// AvgMessages and AvgBytes expose the mirror's scheduled-traffic
// accounting over every cycle drawn so far.
func (src *ScheduleSource) AvgMessages() float64 {
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.eng.AvgMessages()
}

func (src *ScheduleSource) AvgBytes() float64 {
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.eng.AvgBytes()
}

// View returns a fresh cursor over the shared schedule, positioned at
// cycle 0.
func (src *ScheduleSource) View() *ScheduleView {
	return &ScheduleView{src: src}
}

// ScheduleView is one participant's cursor over a shared
// ScheduleSource. Not safe for concurrent use — each participant's main
// protocol loop owns its own view, mirroring how each classic daemon
// owned its own engine.
type ScheduleView struct {
	src *ScheduleSource
	pos int
}

// DrawCycles returns the next n cycles' schedules, identical across
// every view of the same source. Nothing is copied: the result shares
// the source's retained schedules and must not be written to.
func (v *ScheduleView) DrawCycles(n int) [][]sim.Scheduled {
	c := v.src.draw(v.pos, n)
	v.pos += n
	return c
}

// AvgMessages and AvgBytes delegate to the shared source.
func (v *ScheduleView) AvgMessages() float64 { return v.src.AvgMessages() }
func (v *ScheduleView) AvgBytes() float64    { return v.src.AvgBytes() }
