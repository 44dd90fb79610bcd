package main

import (
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"chiaroscuro/internal/homenc"
)

// The trace is taken from outside the program under test: spans are
// opened and closed by the benchmark around the calls into each layer
// (the homenc.Scheme decorator) and at the progress callbacks the
// protocol already exposes (core.Observer / Job.Events). Spans inside
// the program are a later change.

// span is one traced interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is the ID of the span that caused it (0 for a
// job, the root). Spans of one job share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a closed span and returns its ID.
func (t *tracer) add(parent, job int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// reserve allocates the ID of a span that closes later (a parent whose
// children are recorded first).
func (t *tracer) reserve(parent, job int, name string, start time.Time) int {
	return t.add(parent, job, name, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Layers         map[string]float64 `json:"layers"`
	UnstableCounts []string           `json:"unstable_counts"`
	Spans          []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	buf, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

// Protocol phases as the crypto decorator attributes them. The three
// gossip phases carry core.Phase's numbering; phaseRelease is the tail
// between the last decryption cycle and the release (share combination
// and decoding).
const (
	phaseSum = iota
	phaseDiss
	phaseDec
	phaseRelease
	nPhases
)

var phaseNames = [nPhases]string{"sum", "dissemination", "decryption", "release"}

// opStat accumulates one scheme operation within one phase.
type opStat struct {
	n    atomic.Int64
	busy atomic.Int64 // nanoseconds inside the call, summed over goroutines
}

// jobTrace records one job: the span tree job → iteration → phase →
// cycle, and the crypto calls attributed to the phase current when
// they were made.
type jobTrace struct {
	t   *tracer
	job int

	cur    atomic.Int32 // phase current at call time, read by the decorator
	crypto [nPhases][nOps]opStat

	// Everything below is touched only by the one goroutine delivering
	// progress callbacks, and read after end().
	start             time.Time
	root, iter, phase int // open span IDs (0: none)
	iterNo, phaseNo   int
	phaseAt           time.Time
	last              time.Time // end of the previous cycle (or the phase's start)
	phaseDur          [nPhases]time.Duration
	cycles            []time.Duration
	releases          []time.Time
}

func (t *tracer) job(job int) *jobTrace { return &jobTrace{t: t, job: job} }

func (jt *jobTrace) begin(start time.Time) {
	jt.start, jt.last = start, start
	jt.root = jt.t.reserve(0, jt.job, "job", start)
}

// openPhase closes the open phase span, if any, and opens the next at
// the same instant: the protocol runs its phases back to back.
func (jt *jobTrace) openPhase(it, ph int, at time.Time) {
	jt.closePhase(at)
	if jt.iter == 0 || it != jt.iterNo {
		jt.closeIter(at)
		jt.iterNo = it
		jt.iter = jt.t.reserve(jt.root, jt.job, "iteration", at)
	}
	jt.phaseNo, jt.phaseAt = ph, at
	jt.phase = jt.t.reserve(jt.iter, jt.job, phaseNames[ph], at)
	jt.cur.Store(int32(ph))
}

func (jt *jobTrace) closePhase(at time.Time) {
	if jt.phase == 0 {
		return
	}
	jt.t.close(jt.phase, at)
	jt.phaseDur[jt.phaseNo] += at.Sub(jt.phaseAt)
	jt.phase = 0
}

func (jt *jobTrace) closeIter(at time.Time) {
	if jt.iter == 0 {
		return
	}
	jt.t.close(jt.iter, at)
	jt.iter = 0
}

// cycle handles one completed gossip cycle of a phase. The first cycle
// of the first phase starts at the job's start: the assignment step and
// the initial encryptions have no boundary visible from outside and
// fall into it.
func (jt *jobTrace) cycle(it, ph, cycle, of int) {
	now := time.Now()
	if jt.phase == 0 || ph != jt.phaseNo || it != jt.iterNo {
		jt.openPhase(it, ph, jt.last)
	}
	jt.t.add(jt.phase, jt.job, "cycle", jt.last, now)
	jt.cycles = append(jt.cycles, now.Sub(jt.last))
	jt.last = now
	if of > 0 && cycle == of {
		// A fixed-length phase just ran its last cycle: the next phase
		// starts now, not when its first cycle reports completion, so
		// the crypto calls of that cycle are attributed where they run.
		jt.openPhase(it, ph+1, now)
	}
}

// released handles one iteration's release.
func (jt *jobTrace) released(it int) {
	now := time.Now()
	jt.releases = append(jt.releases, now)
	if jt.iter != 0 && it == jt.iterNo {
		jt.closePhase(now)
		jt.closeIter(now)
	} else {
		// No cycle preceded it (the centralized modes gossip nothing).
		jt.t.add(jt.root, jt.job, "iteration", jt.last, now)
	}
	jt.last = now
	jt.cur.Store(phaseSum)
}

func (jt *jobTrace) end(at time.Time) {
	jt.closePhase(at)
	jt.closeIter(at)
	jt.t.close(jt.root, at)
}

// busy returns the crypto time attributed to phase ph, summed over
// operations and goroutines.
func (jt *jobTrace) busy(ph int) time.Duration {
	var ns int64
	for op := range jt.crypto[ph] {
		ns += jt.crypto[ph][op].busy.Load()
	}
	return time.Duration(ns)
}

// tracedScheme decorates the job's scheme: every call is counted and
// timed from outside, under the phase current when it was made.
type tracedScheme struct {
	homenc.Scheme
	jt *jobTrace
}

func (jt *jobTrace) wrap(s homenc.Scheme) homenc.Scheme { return tracedScheme{Scheme: s, jt: jt} }

func (s tracedScheme) done(op int, start time.Time) {
	st := &s.jt.crypto[s.jt.cur.Load()][op]
	st.n.Add(1)
	st.busy.Add(time.Since(start).Nanoseconds())
}

func (s tracedScheme) Encrypt(m *big.Int) homenc.Ciphertext {
	defer s.done(opEncrypt, time.Now())
	return s.Scheme.Encrypt(m)
}

func (s tracedScheme) Add(a, b homenc.Ciphertext) homenc.Ciphertext {
	defer s.done(opAdd, time.Now())
	return s.Scheme.Add(a, b)
}

func (s tracedScheme) ScalarMul(a homenc.Ciphertext, k *big.Int) homenc.Ciphertext {
	defer s.done(opScalarMul, time.Now())
	return s.Scheme.ScalarMul(a, k)
}

func (s tracedScheme) PartialDecrypt(index int, c homenc.Ciphertext) (homenc.PartialDecryption, error) {
	defer s.done(opPartialDecrypt, time.Now())
	return s.Scheme.PartialDecrypt(index, c)
}

func (s tracedScheme) Combine(c homenc.Ciphertext, parts []homenc.PartialDecryption) (*big.Int, error) {
	defer s.done(opCombine, time.Now())
	return s.Scheme.Combine(c, parts)
}
