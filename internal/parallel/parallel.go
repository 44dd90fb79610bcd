// Package parallel is the shared bounded worker substrate the crypto
// and simulation layers fan out on: per-dimension homomorphic
// operations, encryption fan-outs, partial-decryption sweeps, and the
// conflict-free exchange batches of the parallel simulation cycle.
//
// The process-wide default worker count is runtime.NumCPU(), overridable
// programmatically with SetWorkers or from the environment with
// CHIAROSCURO_WORKERS (CI sets it to 1 to force fully serial runs).
// Every fan-out assigns each index to exactly one worker, so any
// computation whose index i writes only slot i is deterministic
// regardless of the worker count.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var defaultWorkers atomic.Int64

// tokens is the process-wide bucket bounding the number of *spawned*
// worker goroutines across every concurrent and nested ForEach: a
// fan-out may only spawn helpers while tokens are available, and the
// calling goroutine always works inline. A dim-level loop nested inside
// an engine-level batch therefore degrades to inline execution instead
// of oversubscribing the machine with workers² goroutines.
var tokens atomic.Value // chan struct{} with capacity Workers()-1

func init() {
	w := runtime.NumCPU()
	if s := os.Getenv("CHIAROSCURO_WORKERS"); s != "" {
		v, err := EnvWorkers(s)
		if err != nil {
			// init cannot return an error; a malformed override used to be
			// dropped silently, which hid typos like WORKERS=fast. Say so.
			fmt.Fprintf(os.Stderr, "chiaroscuro: %v (falling back to %d workers)\n", err, w)
		} else {
			w = v
		}
	}
	setWorkers(w)
}

// EnvWorkers parses a CHIAROSCURO_WORKERS value: a positive integer
// worker count. Anything else — non-numeric, zero, negative — is an
// error (reported at startup; the override is then ignored).
func EnvWorkers(s string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("parallel: CHIAROSCURO_WORKERS=%q is not an integer", s)
	}
	if v < 1 {
		return 0, fmt.Errorf("parallel: CHIAROSCURO_WORKERS=%d must be at least 1", v)
	}
	return v, nil
}

func setWorkers(v int) {
	defaultWorkers.Store(int64(v))
	tokens.Store(make(chan struct{}, v-1))
}

// Workers returns the process-wide default worker count (>= 1).
func Workers() int { return int(defaultWorkers.Load()) }

// SetWorkers overrides the process-wide default worker count and the
// shared spawn budget; values below 1 reset it to runtime.NumCPU(). It
// must not be called concurrently with running fan-outs.
func SetWorkers(v int) {
	if v < 1 {
		v = runtime.NumCPU()
	}
	setWorkers(v)
}

// ForEach runs fn(i) for every i in [0, n) and returns when all calls
// completed. The calling goroutine always participates; up to
// workers-1 helper goroutines are spawned while the process-wide spawn
// budget allows, so total worker concurrency stays bounded by the
// SetWorkers/CHIAROSCURO_WORKERS setting no matter how fan-outs nest
// or race. workers <= 1 (or a single-element range) is exactly a plain
// inline loop. Indices are handed out dynamically, which keeps cores
// busy when per-index cost is skewed (the big.Int exponent sizes of
// the crypto layer vary); fn must therefore not depend on execution
// order.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	bucket, _ := tokens.Load().(chan struct{})
	var wg sync.WaitGroup
spawn:
	for w := 1; w < workers; w++ {
		select {
		case bucket <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-bucket
					wg.Done()
				}()
				work()
			}()
		default:
			// Spawn budget exhausted (nested or concurrent fan-outs
			// already saturate the cores): work inline instead.
			break spawn
		}
	}
	work()
	wg.Wait()
}
