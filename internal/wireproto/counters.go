package wireproto

import "sync/atomic"

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
	return Counters{
		Initiated: c.Initiated.Load(),
		Responded: c.Responded.Load(),
		Timeouts:  c.Timeouts.Load(),
		Rejected:  c.Rejected.Load(),
		BadFrames: c.BadFrames.Load(),
		Retries:   c.Retries.Load(),
		Suspected: c.Suspected.Load(),
		Evicted:   c.Evicted.Load(),
		Resumed:   c.Resumed.Load(),
		BytesSent: c.BytesSent.Load(),
		BytesRecv: c.BytesRecv.Load(),
	}
}

// Restore overwrites the live counters with a snapshot — the
// crash-recovery path: a node relaunched from its journal continues
// counting where its last durable checkpoint left off, so replayed
// runs report totals comparable to uncrashed ones.
func (c *CounterSet) Restore(s Counters) {
	c.Initiated.Store(s.Initiated)
	c.Responded.Store(s.Responded)
	c.Timeouts.Store(s.Timeouts)
	c.Rejected.Store(s.Rejected)
	c.BadFrames.Store(s.BadFrames)
	c.Retries.Store(s.Retries)
	c.Suspected.Store(s.Suspected)
	c.Evicted.Store(s.Evicted)
	c.Resumed.Store(s.Resumed)
	c.BytesSent.Store(s.BytesSent)
	c.BytesRecv.Store(s.BytesRecv)
}

// Exchanges returns the total exchange count (both roles).
func (c Counters) Exchanges() int64 { return c.Initiated + c.Responded }

// Add accumulates o into c field by field — the one place a population
// or a run series folds its counters.
func (c *Counters) Add(o Counters) {
	c.Initiated += o.Initiated
	c.Responded += o.Responded
	c.Timeouts += o.Timeouts
	c.Rejected += o.Rejected
	c.BadFrames += o.BadFrames
	c.Retries += o.Retries
	c.Suspected += o.Suspected
	c.Evicted += o.Evicted
	c.Resumed += o.Resumed
	c.BytesSent += o.BytesSent
	c.BytesRecv += o.BytesRecv
}
