// Package faultnet is a seeded, deterministic fault-injection layer for
// the networked Chiaroscuro runtime. It wraps a node's dialer and the
// net.Conns it produces, injecting the failure modes a hostile
// deployment network exhibits — connection refusals, added latency,
// mid-frame connection cuts, asymmetric partitions, and crash-at-leg
// decisions generalizing the node runtime's fin-leg test hook — all
// driven by a reproducible per-seed fault plan.
//
// Determinism model. Every fault decision is a pure function of
// (plan seed, directed pair, per-pair attempt ordinal): the injector
// never keeps a shared RNG stream whose consumption order could depend
// on goroutine interleaving. A node's exchange dials to one peer happen
// strictly in schedule order on its main protocol loop, so the attempt
// ordinals — and with them every refusal, partition window, latency
// draw and cut point — replay identically across runs of the same seed.
// Membership traffic (hello/view gossip, peer < 0) is passed through
// unfaulted: its dial counts are timing-dependent and would poison the
// ordinals.
//
// Liveness guarantee. MaxStreak bounds how many consecutive dial
// attempts of one directed pair may fault: after MaxStreak faulted
// attempts the next one is forced clean. A retry policy allowing at
// least MaxStreak retries therefore completes every scheduled exchange,
// which is what lets a chaos run keep the simulator's completed-exchange
// trace — and release bit-identical centroids.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrInjected marks every artificial failure the injector produces, so
// tests and the soak harness can tell injected faults from real ones.
var ErrInjected = errors.New("faultnet: injected fault")

// Plan is a reproducible fault plan. Probabilities are per dial attempt
// (refusals, cuts), per directed pair (partitions), or per exchange
// slot (crashes); the zero value injects nothing.
type Plan struct {
	// Seed drives every fault decision. Two injectors with equal plans
	// make identical decisions.
	Seed uint64

	// RefuseProb refuses a dial attempt outright (the ECONNREFUSED
	// shape: the failure is immediate, never a burned deadline).
	RefuseProb float64

	// PartitionProb marks a directed pair (from → to) partitioned. A
	// partitioned pair blackholes its first PartitionAttempts dials —
	// the dial hangs for PartitionDelay, then fails — and heals
	// afterwards. Directions are independent: from → to can be dark
	// while to → from is clean, the asymmetric-partition shape.
	PartitionProb float64
	// PartitionAttempts is how many dials a partition blocks before
	// healing (default 2).
	PartitionAttempts int
	// PartitionDelay is the scaled-down SYN-timeout a blackholed dial
	// burns before failing (default 25ms, capped at the dial timeout).
	PartitionDelay time.Duration

	// CutProb cuts a connection mid-frame: a deterministic byte budget
	// is drawn for the attempt, and the first write crossing it sends a
	// partial frame and kills the connection.
	CutProb float64

	// LatencyMax adds a per-attempt deterministic latency in
	// [0, LatencyMax) before every frame write on the connection.
	LatencyMax time.Duration

	// CrashProb crashes an exchange at one of its send legs: the leg is
	// never written and the connection dies silently, reproducing a
	// participant dying at exactly that point (the generalization of
	// the node runtime's fin-leg test hook). Decisions are keyed per
	// exchange slot, not per attempt: a crashed slot stays crashed.
	CrashProb float64

	// MaxStreak forces a clean dial after this many consecutive faulted
	// attempts on one directed pair (default 2; negative disables the
	// guard and with it the liveness guarantee).
	MaxStreak int
}

// withDefaults normalizes the zero-value knobs.
func (p Plan) withDefaults() Plan {
	if p.PartitionAttempts == 0 {
		p.PartitionAttempts = 2
	}
	if p.PartitionDelay == 0 {
		p.PartitionDelay = 25 * time.Millisecond
	}
	if p.MaxStreak == 0 {
		p.MaxStreak = 2
	}
	return p
}

// Injector materializes a Plan: it hands every node of a population a
// dialer and a crash hook wired to the shared decision space. Safe for
// concurrent use by all nodes of the population.
type Injector struct {
	plan Plan

	mu    sync.Mutex
	pairs map[pair]*pairState
}

type pair struct{ from, to int }

// pairState orders one directed pair's dial attempts and tracks its
// consecutive-fault streak for the MaxStreak liveness guard.
type pairState struct {
	attempt int
	streak  int
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan.withDefaults(), pairs: make(map[pair]*pairState)}
}

// Seed returns the plan seed, for reproduction logging.
func (in *Injector) Seed() uint64 { return in.plan.Seed }

// --- deterministic decision space ---

// mix is SplitMix64: a bijective avalanche over a decision key. Every
// fault decision bottoms out here.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a decision key to [0, 1).
func unit(key uint64) float64 {
	return float64(mix(key)>>11) / (1 << 53)
}

// key builds a decision key from the seed, a fault-kind tag and up to
// four coordinates.
func (in *Injector) key(tag uint64, a, b, c, d int) uint64 {
	k := mix(in.plan.Seed ^ tag)
	k = mix(k ^ uint64(int64(a)))
	k = mix(k ^ uint64(int64(b)))
	k = mix(k ^ uint64(int64(c)))
	return mix(k ^ uint64(int64(d)))
}

// Fault-kind tags (arbitrary distinct constants).
const (
	tagRefuse uint64 = 0xA1
	tagPart   uint64 = 0xB2
	tagCut    uint64 = 0xC3
	tagLat    uint64 = 0xD4
	tagCrash  uint64 = 0xE5
)

// verdict is the fault outcome of one dial attempt.
type verdict struct {
	refuse    bool
	partition bool
	cutAfter  int64 // bytes until the mid-frame cut (<0: never)
	latency   time.Duration
}

// decide computes the attempt's verdict and advances the pair's streak
// accounting.
func (in *Injector) decide(from, to int) verdict {
	in.mu.Lock()
	ps, ok := in.pairs[pair{from, to}]
	if !ok {
		ps = &pairState{}
		in.pairs[pair{from, to}] = ps
	}
	attempt := ps.attempt
	ps.attempt++
	streak := ps.streak
	in.mu.Unlock()

	v := verdict{cutAfter: -1}
	guard := in.plan.MaxStreak >= 0 && streak >= in.plan.MaxStreak
	if !guard {
		// Partition: a pair-level property consuming the pair's first
		// PartitionAttempts dials.
		if in.plan.PartitionProb > 0 && attempt < in.plan.PartitionAttempts &&
			unit(in.key(tagPart, from, to, 0, 0)) < in.plan.PartitionProb {
			v.partition = true
		}
		if !v.partition && in.plan.RefuseProb > 0 &&
			unit(in.key(tagRefuse, from, to, attempt, 0)) < in.plan.RefuseProb {
			v.refuse = true
		}
		if !v.partition && !v.refuse && in.plan.CutProb > 0 &&
			unit(in.key(tagCut, from, to, attempt, 1)) < in.plan.CutProb {
			// Cut somewhere in the first KB: always mid-frame for every
			// protocol message (the smallest frame is 14 bytes).
			v.cutAfter = 1 + int64(unit(in.key(tagCut, from, to, attempt, 2))*1024)
		}
	}
	if in.plan.LatencyMax > 0 {
		v.latency = time.Duration(unit(in.key(tagLat, from, to, attempt, 0)) * float64(in.plan.LatencyMax))
	}

	in.mu.Lock()
	if v.refuse || v.partition || v.cutAfter >= 0 {
		ps.streak = streak + 1
	} else {
		ps.streak = 0
	}
	in.mu.Unlock()
	return v
}

// CrashesAt reports whether the plan crashes node self's send at the
// given exchange-slot coordinates (leg ∈ {0 req, 1 resp, 2 fin}). The
// decision is slot-keyed: retries of a crashed slot crash again, as a
// genuinely dead participant would.
func (in *Injector) CrashesAt(self, leg, phase, iter, cycle, seq int) bool {
	if in.plan.CrashProb <= 0 {
		return false
	}
	k := in.key(tagCrash, self, leg, phase, iter)
	k = mix(k ^ uint64(int64(cycle)))
	k = mix(k ^ uint64(int64(seq)))
	return unit(k) < in.plan.CrashProb
}

// DialFunc is the underlying transport a NodeFaults injects faults on
// top of — the same shape as the node runtime's Dialer.Dial.
type DialFunc func(peer int, addr string, timeout time.Duration) (net.Conn, error)

// NodeFaults is the per-node face of the injector: a dialer (matching
// the node runtime's Dialer surface) and a crash hook.
type NodeFaults struct {
	in   *Injector
	self int
	dial DialFunc // nil: plain TCP
}

// Node returns the fault surface for one participant index.
func (in *Injector) Node(self int) *NodeFaults {
	return &NodeFaults{in: in, self: self}
}

// WithTransport returns a copy of nf whose clean connections come from
// dial instead of plain TCP — the fault verdicts (refuse, partition,
// latency, cut) are layered on top unchanged. This is how a virtual
// population runs chaos plans over the mux host's in-process
// connections: same decisions at the same attempt ordinals, no kernel
// sockets.
func (nf *NodeFaults) WithTransport(dial DialFunc) *NodeFaults {
	return &NodeFaults{in: nf.in, self: nf.self, dial: dial}
}

// connect is the fault-free underlying dial.
func (nf *NodeFaults) connect(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	if nf.dial != nil {
		return nf.dial(peer, addr, timeout)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// Dial dials addr under the plan's faults. peer is the destination's
// population index; membership dials (peer < 0) pass through unfaulted
// (see the package determinism note).
func (nf *NodeFaults) Dial(peer int, addr string, timeout time.Duration) (net.Conn, error) {
	if peer < 0 {
		return nf.connect(peer, addr, timeout)
	}
	v := nf.in.decide(nf.self, peer)
	if v.refuse {
		return nil, fmt.Errorf("%w: dial %d→%d refused", ErrInjected, nf.self, peer)
	}
	if v.partition {
		delay := nf.in.plan.PartitionDelay
		if timeout > 0 && delay > timeout {
			delay = timeout
		}
		time.Sleep(delay)
		return nil, fmt.Errorf("%w: dial %d→%d blackholed (partition)", ErrInjected, nf.self, peer)
	}
	conn, err := nf.connect(peer, addr, timeout)
	if err != nil {
		return nil, err
	}
	if v.cutAfter < 0 && v.latency == 0 {
		return conn, nil
	}
	return &faultConn{Conn: conn, latency: v.latency, cutAfter: v.cutAfter}, nil
}

// Crash implements the node runtime's crash-at-leg hook shape.
func (nf *NodeFaults) Crash(leg, phase, iter, cycle, seq int) bool {
	return nf.in.CrashesAt(nf.self, leg, phase, iter, cycle, seq)
}

// faultConn wraps one connection with the attempt's write latency and
// mid-frame byte budget. Reads pass through: the peer's own faultConn
// (or a genuine failure) shapes that direction.
type faultConn struct {
	net.Conn
	mu       sync.Mutex
	latency  time.Duration
	cutAfter int64 // remaining write bytes before the cut (<0: never)
	cut      bool
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.latency > 0 {
		time.Sleep(c.latency)
	}
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: connection already cut", ErrInjected)
	}
	if c.cutAfter < 0 || int64(len(p)) <= c.cutAfter {
		if c.cutAfter >= 0 {
			c.cutAfter -= int64(len(p))
		}
		c.mu.Unlock()
		return c.Conn.Write(p)
	}
	// The cut lands inside this write: emit the partial frame, then
	// kill the connection so both ends see it die mid-message.
	keep := c.cutAfter
	c.cut = true
	c.mu.Unlock()
	n, _ := c.Conn.Write(p[:keep])
	_ = c.Conn.Close()
	return n, fmt.Errorf("%w: connection cut mid-frame after %d bytes", ErrInjected, keep)
}
