package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// goroutinePeak samples the goroutine count until stopped.
type goroutinePeak struct {
	quit chan struct{}
	done sync.WaitGroup
	peak int // written by the sampler, read after done.Wait
}

func watchGoroutines() *goroutinePeak {
	g := &goroutinePeak{quit: make(chan struct{})}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			g.peak = max(g.peak, runtime.NumGoroutine())
			select {
			case <-g.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// stop ends the sampling and returns the peak, not counting the
// sampler itself.
func (g *goroutinePeak) stop() int {
	close(g.quit)
	g.done.Wait()
	return g.peak - 1
}

// tracedShare is the part of the window the traced pass spends on jobs;
// the rest is left for the twin runs and the probes so a traced run
// lasts about as long as an untraced one.
const tracedShare = 0.7

// runTraced is the traced pass: pairs of (untraced, traced) jobs at the
// same seeds, so the difference of their medians is the tracing
// overhead; then the layer probes. It writes the spans and the
// per-layer numbers to outDir and returns the per-layer metrics.
func runTraced(ctx context.Context, w workload, seed uint64, window time.Duration, outDir string) (*result, error) {
	e, err := setup(ctx, w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	tr := newTracer()
	var plain, traced []sample
	var jobs []*jobTrace
	peak := watchGoroutines()
	budget := time.Duration(tracedShare * float64(window))
	for start := time.Now(); len(jobs) == 0 || time.Since(start) < budget; {
		j := len(jobs)
		plain = append(plain, timedJob(ctx, e, j, nil))
		jt := tr.job(j)
		traced = append(traced, timedJob(ctx, e, j, jt))
		jobs = append(jobs, jt)
	}
	peakGoroutines := peak.stop()

	res := &result{attempted: len(plain) + len(traced), metrics: map[string]float64{}}
	layers := res.metrics
	for _, m := range perLayerSpecs {
		layers[m.Name] = 0
	}
	cores := float64(runtime.GOMAXPROCS(0))
	nJobs := float64(len(jobs))

	// Crypto layer: the decorator's counts and busy time, per job.
	mod := "plain"
	if e.scheme != nil {
		mod = schemeModules[e.scheme.Name()]
	}
	var cryptoBusy float64
	for op, name := range cryptoOps {
		var n, busy int64
		for _, jt := range jobs {
			for ph := range jt.crypto {
				n += jt.crypto[ph][op].n.Load()
				busy += jt.crypto[ph][op].busy.Load()
			}
		}
		layers[mod+"."+name+"_n"] = float64(n) / nJobs
		layers[mod+"."+name+"_busy_s"] = float64(busy) / 1e9 / nJobs
		cryptoBusy += float64(busy) / 1e9
	}

	// Protocol phases: wall time per phase, and its self time — the
	// phase's wall minus the crypto busy time it contains, spread over
	// the cores.
	var cycleMs []float64
	perPhase := [nPhases][]float64{}
	perPhaseSelf := [nPhases][]float64{}
	var cyclesPerJob, iterS []float64
	for _, jt := range jobs {
		for ph := range perPhase {
			d := jt.phaseDur[ph].Seconds()
			perPhase[ph] = append(perPhase[ph], d)
			perPhaseSelf[ph] = append(perPhaseSelf[ph], max(0, d-jt.busy(ph).Seconds()/cores))
		}
		cyclesPerJob = append(cyclesPerJob, float64(len(jt.cycles)))
		for _, c := range jt.cycles {
			cycleMs = append(cycleMs, ms(c))
		}
		prev := jt.start
		for _, at := range jt.releases {
			iterS = append(iterS, at.Sub(prev).Seconds())
			prev = at
		}
	}
	layers["core.sum_s"] = median(perPhase[phaseSum])
	layers["core.diss_s"] = median(perPhase[phaseDiss])
	layers["core.dec_s"] = median(perPhase[phaseDec])
	layers["core.release_s"] = median(perPhase[phaseRelease])
	layers["core.sum_self_s"] = median(perPhaseSelf[phaseSum])
	layers["core.diss_self_s"] = median(perPhaseSelf[phaseDiss])
	layers["core.dec_self_s"] = median(perPhaseSelf[phaseDec])
	layers["core.cycles"] = median(cyclesPerJob)
	layers["core.cycle_ms_p50"] = median(cycleMs)
	layers["core.cycle_ms_p90"] = quantile(cycleMs, 0.9)
	if !w.distributed() {
		layers["dpkmeans.iter_s"] = median(iterS)
	}

	// End-to-end accounting of both halves of the pairs.
	var plainWall, tracedWall []float64
	var plainCPU, tracedCPU, gcCycles, gcPauseMs, mallocsN float64
	var initiated, responded, timeouts, retries, bytesSent int64
	var mirrorBytes float64
	for i := range plain {
		p, t := plain[i], traced[i]
		if p.failed {
			res.failed++
		}
		if t.failed {
			res.failed++
		}
		plainWall = append(plainWall, p.wall)
		tracedWall = append(tracedWall, t.wall)
		plainCPU += p.cpu
		tracedCPU += t.cpu
		gcCycles += float64(p.gcCycles)
		gcPauseMs += float64(p.gcPauseNs) / 1e6
		mallocsN += float64(p.mallocs)
		if ws := p.wire; ws != nil {
			initiated += ws.Initiated
			responded += ws.Responded
			timeouts += ws.Timeouts
			retries += ws.Retries
			bytesSent += ws.BytesSent
			mirrorBytes += p.wireB * float64(w.n)
		}
	}
	layers["runtime.gc_cycles"] = gcCycles / nJobs
	layers["runtime.gc_pause_ms"] = gcPauseMs / nJobs
	layers["runtime.mallocs_per_job"] = mallocsN / nJobs
	layers["runtime.peak_goroutines"] = float64(peakGoroutines)
	layers["trace.job_s"] = median(tracedWall)
	layers["trace.overhead_job_s"] = median(tracedWall) - median(plainWall)
	layers["trace.spans"] = float64(len(tr.spans))
	if tracedCPU > 0 {
		layers["trace.crypto_cpu_share"] = cryptoBusy / tracedCPU
	}
	if wall := sum(plainWall); wall > 0 {
		layers["trace.idle_share"] = max(0, 1-plainCPU/(cores*wall))
		layers["node.idle_core_s"] = max(0, cores*wall-plainCPU) / nJobs
	}
	if initiated > 0 {
		layers["node.exchanges"] = float64(initiated) / nJobs
		layers["node.timeouts"] = float64(timeouts) / nJobs
		layers["node.retries"] = float64(retries) / nJobs
		layers["node.commit_ratio"] = float64(responded) / float64(initiated)
		layers["node.wire_overhead"] = float64(bytesSent) / mirrorBytes
	}

	// mux: what the transport adds over the same protocol run in memory.
	if w.kind == kindNetVnodes {
		var twin []float64
		for j := 0; j < min(3, len(jobs)); j++ {
			out, err := e.runTwin(ctx, j)
			if err != nil {
				return nil, fmt.Errorf("simulated twin: %w", err)
			}
			twin = append(twin, out.wall.Seconds())
		}
		layers["mux.transport_s"] = median(plainWall) - median(twin)
	}

	unstable, err := probes(e, filepath.Join(outDir, "tmp"), layers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, name := range unstable {
		fmt.Printf("UNSTABLE %s: %s did not repeat\n", w.name, name)
	}

	path, err := writeTrace(outDir, traceFile{
		Workload: w.name, Seed: seed, Layers: layers, UnstableCounts: append([]string{}, unstable...), Spans: tr.spans,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	fmt.Printf("%s seed %d: %d traced jobs, %d spans -> %s\n", w.name, seed, len(jobs), len(tr.spans), path)
	fmt.Printf("%s tracing overhead on job_s: %+.4f s (traced %.4f s, untraced %.4f s, same seeds)\n",
		w.name, layers["trace.overhead_job_s"], median(tracedWall), median(plainWall))
	return res, nil
}
