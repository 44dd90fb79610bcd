package wireproto

import (
	"math/bits"
	"sync"
)

// Frame buffers are recycled through a size-classed pool: every frame a
// peer reads or writes lives in one buffer for the length of an
// exchange leg, and at gossip rates those buffers were a quarter of all
// allocated bytes. The in-process transport (internal/mux) queues the
// bytes in flight between two co-located peers in buffers of the same
// pool, so a frame's write buffer, queue buffer and read buffer are one
// size class recycling among themselves. Classes are powers of two from
// 512 B to 1 MiB; larger frames are allocated exactly and never
// retained. Each class retains at most poolClassBytes of idle buffers,
// so the pool pins a few megabytes at most — far less than the
// per-frame garbage it replaces — however many sizes a run has seen.
const (
	poolMinShift   = 9
	poolMaxShift   = 20
	poolClassBytes = 1 << 20
)

// poolKeep caps how many idle buffers a class retains (tests lower it
// to force immediate reuse).
var poolKeep = 256

type bufClass struct {
	mu   sync.Mutex
	free [][]byte
}

var bufClasses [poolMaxShift - poolMinShift + 1]bufClass

// classOf returns the class whose buffers hold n bytes, or -1 when n is
// beyond the largest class.
func classOf(n int) int {
	if n <= 1<<poolMinShift {
		return 0
	}
	if n > 1<<poolMaxShift {
		return -1
	}
	return bits.Len(uint(n-1)) - poolMinShift
}

// GetBuf returns a buffer of length n whose capacity is its class size
// (exactly n beyond the largest class). Its contents are unspecified.
func GetBuf(n int) []byte {
	c := classOf(n)
	if c < 0 {
		return make([]byte, n)
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		b := cl.free[k-1]
		cl.free = cl.free[:k-1]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]byte, n, 1<<(c+poolMinShift))
}

// PutBuf recycles a buffer obtained from GetBuf. Anything else — nil, a
// buffer an append reallocated, an over-size frame — is left to the
// garbage collector.
func PutBuf(b []byte) {
	c := classOf(cap(b))
	if c < 0 || cap(b) != 1<<(c+poolMinShift) {
		return
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	if len(cl.free) < min(poolKeep, poolClassBytes/cap(b)) {
		cl.free = append(cl.free, b)
	}
	cl.mu.Unlock()
}
