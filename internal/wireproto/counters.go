package wireproto

import (
	"encoding/binary"
	"sync/atomic"
)

// CounterSet is the live wire-level accounting every networked
// component keeps: exchanges by role, timeouts, fault-tolerance
// activity and byte volume. It is safe for concurrent use; Snapshot
// returns a consistent-enough copy for metrics export (fields are read
// independently, which is fine for monotone counters).
type CounterSet struct {
	Initiated atomic.Int64 // exchanges this peer started
	Responded atomic.Int64 // exchanges this peer answered
	Timeouts  atomic.Int64 // exchanges abandoned on a deadline
	Rejected  atomic.Int64 // frames refused (bad version/epoch/bounds)
	BadFrames atomic.Int64 // malformed or over-limit frames that dropped a connection
	Retries   atomic.Int64 // exchange attempts retried after a transient failure
	Suspected atomic.Int64 // consecutive-failure strikes recorded against peers
	Evicted   atomic.Int64 // peers evicted from the address book by suspicion
	Resumed   atomic.Int64 // resume announcements accepted from restarted peers
	BytesSent atomic.Int64
	BytesRecv atomic.Int64
}

// Counters is a plain snapshot of a CounterSet.
type Counters struct {
	Initiated int64
	Responded int64
	Timeouts  int64
	Rejected  int64
	BadFrames int64
	Retries   int64
	Suspected int64
	Evicted   int64
	Resumed   int64
	BytesSent int64
	BytesRecv int64
}

// Snapshot copies the current counter values.
func (c *CounterSet) Snapshot() Counters {
	var s Counters
	dst := s.fields()
	for i, v := range c.fields() {
		*dst[i] = v.Load()
	}
	return s
}

// Restore overwrites the live counters with a snapshot — the
// crash-recovery path: a node relaunched from its journal continues
// counting where its last durable checkpoint left off, so replayed
// runs report totals comparable to uncrashed ones.
func (c *CounterSet) Restore(s Counters) {
	src := s.fields()
	for i, v := range c.fields() {
		v.Store(*src[i])
	}
}

// fields lists the live counters in Counters.fields' order.
func (c *CounterSet) fields() [11]*atomic.Int64 {
	return [11]*atomic.Int64{
		&c.Initiated, &c.Responded, &c.Timeouts, &c.Rejected, &c.BadFrames,
		&c.Retries, &c.Suspected, &c.Evicted, &c.Resumed, &c.BytesSent, &c.BytesRecv,
	}
}

// Exchanges returns the total exchange count (both roles).
func (c Counters) Exchanges() int64 { return c.Initiated + c.Responded }

// Add accumulates o into c field by field — the one place a population
// or a run series folds its counters.
func (c *Counters) Add(o Counters) {
	theirs := o.fields()
	for i, p := range c.fields() {
		*p += *theirs[i]
	}
}

// fields lists the snapshot's counters in their encoding order.
func (c *Counters) fields() [11]*int64 {
	return [11]*int64{
		&c.Initiated, &c.Responded, &c.Timeouts, &c.Rejected, &c.BadFrames,
		&c.Retries, &c.Suspected, &c.Evicted, &c.Resumed, &c.BytesSent, &c.BytesRecv,
	}
}

// Size implements Message: a snapshot is every counter as a u64.
func (c Counters) Size() int { return len(c.fields()) * 8 }

// AppendTo implements Message. A node's journal records a snapshot with
// every commit.
func (c Counters) AppendTo(dst []byte) []byte {
	for _, p := range c.fields() {
		dst = binary.BigEndian.AppendUint64(dst, uint64(*p))
	}
	return dst
}

// Counters reads a snapshot Counters.AppendTo wrote.
func (d *Dec) Counters() Counters {
	var c Counters
	for _, p := range c.fields() {
		*p = int64(d.U64())
	}
	return c
}
