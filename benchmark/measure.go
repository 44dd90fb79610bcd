package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"chiaroscuro"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[min(len(s)-1, max(0, int(math.Ceil(q*float64(len(s))))-1))]
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// setupRounds is how many times one run sets up; setup_s is their
// median, and the last round's inputs feed the timed window.
const setupRounds = 3

// heapFloorMB clamps peak_heap_mb from below: under it, GC pacing noise
// exceeds a tenth of the reading.
const heapFloorMB = 64

const mb = 1 << 20

// sample is the resource accounting around one job.
type sample struct {
	wall, cpu    float64
	allocB       uint64
	mallocs      uint64
	gcCycles     uint32
	gcPauseNs    uint64
	heapSysB     uint64 // after the job
	ratio, wireB float64
	wire         *chiaroscuro.WireStats // nil off the wire
	failed       bool
}

// meter brackets one job with rusage and MemStats readings. The
// collector runs between jobs, outside the bracket.
type meter struct {
	cpu0 float64
	ms0  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.GC()
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuSeconds()
	return m
}

func (m *meter) stop(s *sample) {
	s.cpu = cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocB = ms.TotalAlloc - m.ms0.TotalAlloc
	s.mallocs = ms.Mallocs - m.ms0.Mallocs
	s.gcCycles = ms.NumGC - m.ms0.NumGC
	s.gcPauseNs = ms.PauseTotalNs - m.ms0.PauseTotalNs
	s.heapSysB = ms.HeapSys
}

// timedJob runs job j under the meter and the output checks. A job that
// errors or fails a check is a failed operation; it still yields a
// sample so the loop's accounting stays whole.
func timedJob(ctx context.Context, e *env, j int, jt *jobTrace) sample {
	var s sample
	m := startMeter()
	out, err := e.runJob(ctx, j, jt)
	m.stop(&s)
	if err == nil {
		s.wall = out.wall.Seconds()
		s.wireB = e.wireBytesPerPeer(out)
		s.wire = out.wire
		s.ratio, err = e.check(j, out)
	}
	if err != nil {
		s.failed = true
		fmt.Printf("FAIL %s job %d (seed %d): %v\n", e.w.name, j, jobSeed(e.seed, j), err)
	}
	return s
}

// setupAll sets the workload up setupRounds times and returns the last
// round's env and the median set-up time. Each round's inputs are
// dropped before the next so the rounds do not stack on the heap.
func setupAll(ctx context.Context, w workload, seed uint64) (*env, float64, error) {
	var times []float64
	var e *env
	for r := 0; r < setupRounds; r++ {
		e = nil
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = setup(ctx, w, seed); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return e, median(times), nil
}

// result is what one run of one workload reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

// runEndToEnd is the untraced run: set up, then a closed loop of one
// client — job j+1 starts when job j returned — for the given window.
func runEndToEnd(ctx context.Context, w workload, seed uint64, window time.Duration) (*result, error) {
	e, setupS, err := setupAll(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	var samples []sample
	var heapMark uint64
	for start := time.Now(); len(samples) == 0 || time.Since(start) < window; {
		s := timedJob(ctx, e, len(samples), nil)
		samples = append(samples, s)
		if len(samples) <= w.heapMarkJob {
			heapMark = s.heapSysB
		}
	}
	res := &result{attempted: len(samples), metrics: map[string]float64{}}
	var walls, ratios, cpu, alloc, wire []float64
	for _, s := range samples {
		if s.failed {
			res.failed++
			continue
		}
		walls = append(walls, s.wall)
		ratios = append(ratios, s.ratio)
		wire = append(wire, s.wireB)
		cpu = append(cpu, s.cpu)
		alloc = append(alloc, float64(s.allocB))
	}
	res.metrics[mJobS] = median(walls)
	res.metrics[mCPU] = median(cpu)
	res.metrics[mWireBytes] = median(wire)
	res.metrics[mAllocMB] = sum(alloc) / float64(max(1, len(alloc))) / mb
	res.metrics[mPeakHeap] = max(heapFloorMB, float64(heapMark)/mb)
	res.metrics[mInertia] = median(ratios)
	res.metrics[mSetupS] = setupS
	fmt.Printf("%s seed %d: %d jobs (%d failed); job_s median %.4f max %.4f over %d samples\n",
		w.name, seed, res.attempted, res.failed, median(walls), quantile(walls, 1), len(walls))
	return res, nil
}
