package mux

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// blockedOn waits until a goroutine is parked on the given side of q
// (q.r: a Read; q.w: a Write).
func blockedOn(t *testing.T, q *queue, s *side) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		q.mu.Lock()
		parked := s.parked > 0
		q.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no goroutine blocked on the connection")
		}
		runtime.Gosched()
	}
}

type ioResult struct {
	n   int
	err error
}

func goRead(c net.Conn, size int) <-chan ioResult {
	done := make(chan ioResult, 1)
	go func() {
		n, err := c.Read(make([]byte, size))
		done <- ioResult{n, err}
	}()
	return done
}

func goWrite(c net.Conn, p []byte) <-chan ioResult {
	done := make(chan ioResult, 1)
	go func() {
		n, err := c.Write(p)
		done <- ioResult{n, err}
	}()
	return done
}

func wantResult(t *testing.T, what string, done <-chan ioResult, n int, err error) {
	t.Helper()
	select {
	case got := <-done:
		if got.n != n || !errors.Is(got.err, err) {
			t.Fatalf("%s: got (%d, %v), want (%d, %v)", what, got.n, got.err, n, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked", what)
	}
}

func stillBlocked(t *testing.T, what string, done <-chan ioResult) {
	t.Helper()
	select {
	case got := <-done:
		t.Fatalf("%s: returned (%d, %v), want it to keep waiting", what, got.n, got.err)
	case <-time.After(50 * time.Millisecond):
	}
}

// fill queues writes on c until the next one would have to wait.
func fill(t *testing.T, c *inprocConn) {
	t.Helper()
	chunk := make([]byte, 16<<10)
	for c.out.unread() <= maxQueued {
		if _, err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
}

func (q *queue) unread() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.off
}

// TestInProcConnContract pins everything internal/node uses of a
// connection, each case from both ends of a fresh pair.
func TestInProcConnContract(t *testing.T) {
	past, soon := time.Now().Add(-time.Second), 30*time.Millisecond
	cases := []struct {
		name string
		run  func(t *testing.T, a, b *inprocConn)
	}{
		{"partial reads", func(t *testing.T, a, b *inprocConn) {
			if n, err := a.Write([]byte("0123456789")); n != 10 || err != nil {
				t.Fatalf("write: (%d, %v)", n, err)
			}
			var got []byte
			for _, want := range []int{4, 4, 2} {
				p := make([]byte, 4)
				n, err := b.Read(p)
				if n != want || err != nil {
					t.Fatalf("read: (%d, %v), want (%d, nil)", n, err, want)
				}
				got = append(got, p[:n]...)
			}
			if string(got) != "0123456789" {
				t.Fatalf("read %q", got)
			}
		}},
		{"data then EOF after the peer's close", func(t *testing.T, a, b *inprocConn) {
			_, _ = a.Write([]byte("req"))
			_, _ = a.Write([]byte("fin"))
			_ = a.Close()
			got, err := io.ReadAll(b)
			if string(got) != "reqfin" || err != nil {
				t.Fatalf("read (%q, %v) after the peer closed", got, err)
			}
			wantResult(t, "read past the end", goRead(b, 1), 0, io.EOF)
		}},
		{"locally closed end", func(t *testing.T, a, b *inprocConn) {
			_, _ = b.Write([]byte("unread"))
			_ = a.Close()
			wantResult(t, "read", goRead(a, 8), 0, io.ErrClosedPipe)
			wantResult(t, "write", goWrite(a, []byte("x")), 0, io.ErrClosedPipe)
			if err := a.SetDeadline(time.Time{}); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("SetDeadline on a closed end: %v", err)
			}
		}},
		{"write to a closed peer", func(t *testing.T, a, b *inprocConn) {
			_ = b.Close()
			wantResult(t, "write", goWrite(a, []byte("x")), 0, io.ErrClosedPipe)
		}},
		{"double close", func(t *testing.T, a, b *inprocConn) {
			for i := 0; i < 2; i++ {
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"deadline in the past", func(t *testing.T, a, b *inprocConn) {
			_, _ = b.Write([]byte("queued"))
			_ = a.SetDeadline(past)
			wantResult(t, "read", goRead(a, 8), 0, os.ErrDeadlineExceeded)
			wantResult(t, "write", goWrite(a, []byte("x")), 0, os.ErrDeadlineExceeded)
			_ = a.SetReadDeadline(time.Time{})
			wantResult(t, "read after clearing", goRead(a, 8), 6, nil)
			_ = a.SetWriteDeadline(time.Time{})
			wantResult(t, "write after clearing", goWrite(a, []byte("x")), 1, nil)
		}},
		{"deadline expires under a blocked read", func(t *testing.T, a, b *inprocConn) {
			_ = a.SetReadDeadline(time.Now().Add(soon))
			wantResult(t, "read", goRead(a, 8), 0, os.ErrDeadlineExceeded)
		}},
		{"deadline expires under a blocked write", func(t *testing.T, a, b *inprocConn) {
			fill(t, a)
			_ = a.SetWriteDeadline(time.Now().Add(soon))
			wantResult(t, "write", goWrite(a, []byte("x")), 0, os.ErrDeadlineExceeded)
		}},
		{"deadline set under a blocked read", func(t *testing.T, a, b *inprocConn) {
			done := goRead(a, 8)
			blockedOn(t, a.in, &a.in.r)
			_ = a.SetReadDeadline(time.Now().Add(soon))
			wantResult(t, "read", done, 0, os.ErrDeadlineExceeded)
		}},
		{"deadline set under a blocked write", func(t *testing.T, a, b *inprocConn) {
			fill(t, a)
			done := goWrite(a, []byte("x"))
			blockedOn(t, a.out, &a.out.w)
			_ = a.SetDeadline(time.Now().Add(soon))
			wantResult(t, "write", done, 0, os.ErrDeadlineExceeded)
		}},
		{"deadline cleared under a blocked read", func(t *testing.T, a, b *inprocConn) {
			_ = a.SetDeadline(time.Now().Add(soon))
			done := goRead(a, 8)
			blockedOn(t, a.in, &a.in.r)
			_ = a.SetDeadline(time.Time{}) // a node taking over an exchange request clears it like this
			stillBlocked(t, "read", done)
			_, _ = b.Write([]byte("late"))
			wantResult(t, "read", done, 4, nil)
		}},
		{"deadline cleared under a blocked write", func(t *testing.T, a, b *inprocConn) {
			fill(t, a)
			_ = a.SetWriteDeadline(time.Now().Add(soon))
			done := goWrite(a, []byte("x"))
			blockedOn(t, a.out, &a.out.w)
			_ = a.SetWriteDeadline(time.Time{})
			stillBlocked(t, "write", done)
			if _, err := io.CopyN(io.Discard, b, int64(a.out.unread())); err != nil {
				t.Fatal(err)
			}
			wantResult(t, "write", done, 1, nil)
		}},
		{"close under a blocked read", func(t *testing.T, a, b *inprocConn) {
			own, peers := goRead(a, 8), goRead(b, 8)
			blockedOn(t, a.in, &a.in.r)
			blockedOn(t, b.in, &b.in.r)
			_ = a.Close()
			wantResult(t, "own read", own, 0, io.ErrClosedPipe)
			wantResult(t, "peer's read", peers, 0, io.EOF)
		}},
		{"close under a blocked write", func(t *testing.T, a, b *inprocConn) {
			fill(t, a)
			fill(t, b)
			own, peers := goWrite(a, []byte("x")), goWrite(b, []byte("x"))
			blockedOn(t, a.out, &a.out.w)
			blockedOn(t, b.out, &b.out.w)
			_ = a.Close()
			wantResult(t, "own write", own, 0, io.ErrClosedPipe)
			wantResult(t, "peer's write", peers, 0, io.ErrClosedPipe)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, swap := range []bool{false, true} {
				a, b := newInprocPair(new(sweeper))
				if swap {
					a, b = b, a
				}
				tc.run(t, a, b)
				_ = a.Close()
				_ = b.Close()
			}
		})
	}
}

// TestInProcConnCopyThrough streams 1 MiB through writes of 1 to 64 KiB
// and odd-sized reads. The reader only starts once the writer has run
// into the queue bound, and the queue never holds more than the bound
// plus the one write that found it not yet exceeded.
func TestInProcConnCopyThrough(t *testing.T) {
	const total, maxWrite = 1 << 20, 64 << 10
	rng := rand.New(rand.NewSource(14))
	sent := make([]byte, total)
	rng.Read(sent)
	sizes := []int{}
	for left := total; left > 0; {
		n := min(left, 1<<10+rng.Intn(maxWrite-1<<10+1))
		sizes = append(sizes, n)
		left -= n
	}
	a, b := newInprocPair(new(sweeper))
	_ = a.SetDeadline(time.Now().Add(10 * time.Minute))
	_ = b.SetDeadline(time.Now().Add(10 * time.Minute))
	werr := make(chan error, 1)
	go func() {
		defer a.Close()
		rest := sent
		for _, n := range sizes {
			if _, err := a.Write(rest[:n]); err != nil {
				werr <- err
				return
			}
			rest = rest[n:]
		}
		werr <- nil
	}()
	blockedOn(t, a.out, &a.out.w)
	if a.out.unread() <= maxQueued {
		t.Fatalf("writer waits with only %d bytes queued", a.out.unread())
	}
	var got bytes.Buffer
	p := make([]byte, 8191)
	for peak := 0; ; {
		peak = max(peak, a.out.unread())
		if peak > maxQueued+maxWrite {
			t.Fatalf("%d bytes queued, bound is %d plus one write of at most %d", peak, maxQueued, maxWrite)
		}
		n, err := b.Read(p[:1+rng.Intn(len(p))])
		got.Write(p[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), sent) {
		t.Fatalf("received %d bytes that differ from the %d sent", got.Len(), total)
	}
}

// newTestPair is the connection TestInProcConnReclaimed exercises, its
// deadlines expired by one sweeper as a host's are. Point it at net.Pipe
// to see what the host's own connection replaced: no end is finalized
// and tens of megabytes stay live, pinned by the deadline timers.
var newTestPair = func() (net.Conn, net.Conn) { return newInprocPair(&testSweep) }

var testSweep sweeper

// TestInProcConnReclaimed pins the property the flat heap rests on:
// once both ends of a connection are closed, nothing the runtime holds
// keeps it, its queues or a timer armed for it reachable — whatever
// deadlines were set, and whether or not a reader was blocked at the
// time.
func TestInProcConnReclaimed(t *testing.T) {
	const conns = 10_000
	req, resp, fin := make([]byte, 6<<10), make([]byte, 6<<10), make([]byte, 40)
	var finalized atomic.Int64
	exchange := func(blockReader bool) {
		a, b := newTestPair()
		for _, c := range []net.Conn{a, b} {
			runtime.SetFinalizer(c, func(any) { finalized.Add(1) })
			if err := c.SetDeadline(time.Now().Add(10 * time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		reading := make(chan struct{})
		served := make(chan error, 1)
		go func() {
			defer b.Close()
			p := make([]byte, len(req))
			if _, err := io.ReadFull(b, p); err != nil {
				served <- err
				return
			}
			if _, err := b.Write(resp); err != nil {
				served <- err
				return
			}
			if _, err := io.ReadFull(b, p[:len(fin)]); err != nil {
				served <- err
				return
			}
			close(reading)
			if blockReader {
				if _, err := b.Read(p); err != io.EOF {
					served <- errors.New("blocked read did not end in EOF")
					return
				}
			}
			served <- nil
		}()
		p := make([]byte, len(resp))
		if _, err := a.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(a, p); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Write(fin); err != nil {
			t.Fatal(err)
		}
		<-reading
		if ic, ok := b.(*inprocConn); ok && blockReader {
			blockedOn(t, ic.in, &ic.in.r)
		}
		_ = a.Close()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	exchange(true) // warm the buffer pool
	before := heap()
	for i := 0; i < conns; i++ {
		exchange(i%2 == 0)
	}
	for deadline := time.Now().Add(10 * time.Second); finalized.Load() < 2*(conns+1) && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got != 2*(conns+1) {
		t.Errorf("%d of %d connection ends were reclaimed", got, 2*(conns+1))
	}
	if after := heap(); after > before+1<<20 {
		t.Errorf("heap grew from %d to %d bytes over %d closed connections", before, after, conns)
	}
}

// readAt parks a read on c and reports its error and when it returned.
func readAt(c net.Conn) <-chan timedResult {
	done := make(chan timedResult, 1)
	go func() {
		_, err := c.Read(make([]byte, 8))
		done <- timedResult{err, time.Now()}
	}()
	return done
}

type timedResult struct {
	err error
	at  time.Time
}

// TestInProcConnStaggeredDeadlines parks reads on connections sharing
// one sweeper: first one with a late deadline, which the sweeper's timer
// is armed for, then others with earlier deadlines in shuffled order.
// Each read fails with os.ErrDeadlineExceeded, none before its own
// deadline, the early ones before the late deadline, and the sweeper's
// heap is empty once they all have.
func TestInProcConnStaggeredDeadlines(t *testing.T) {
	var sw sweeper
	defer sw.stop()
	start := time.Now()
	late := start.Add(time.Second)
	dls := []time.Time{late}
	for _, k := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
		dls = append(dls, start.Add(time.Duration(20+10*k)*time.Millisecond))
	}
	done := make([]<-chan timedResult, len(dls))
	for i, dl := range dls {
		a, b := newInprocPair(&sw)
		defer a.Close()
		defer b.Close()
		_ = a.SetReadDeadline(dl)
		done[i] = readAt(a)
		if i == 0 {
			blockedOn(t, a.in, &a.in.r) // the timer is armed for the late deadline
		}
	}
	for i := len(dls) - 1; i >= 0; i-- {
		select {
		case r := <-done[i]:
			if !errors.Is(r.err, os.ErrDeadlineExceeded) {
				t.Errorf("read %d: %v, want %v", i, r.err, os.ErrDeadlineExceeded)
			}
			if r.at.Before(dls[i]) {
				t.Errorf("read %d returned %v before its deadline", i, dls[i].Sub(r.at))
			}
			if i > 0 && !r.at.Before(late) {
				t.Errorf("read %d, due %v after the start, returned only at the late deadline", i, dls[i].Sub(start))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("read %d still blocked", i)
		}
	}
	if n := sw.pending(); n != 0 {
		t.Fatalf("%d entries left in the sweeper's heap", n)
	}
}

// TestInProcConnDeadlineMovedLater moves a parked read's deadline later:
// the sweeper's timer, armed for the old deadline, must not end the read
// then, and the read fails at the new one.
func TestInProcConnDeadlineMovedLater(t *testing.T) {
	var sw sweeper
	defer sw.stop()
	a, b := newInprocPair(&sw)
	defer a.Close()
	defer b.Close()
	_ = a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	done := readAt(a)
	blockedOn(t, a.in, &a.in.r)
	later := time.Now().Add(200 * time.Millisecond)
	_ = a.SetReadDeadline(later)
	select {
	case r := <-done:
		if !errors.Is(r.err, os.ErrDeadlineExceeded) {
			t.Fatalf("read: %v, want %v", r.err, os.ErrDeadlineExceeded)
		}
		if r.at.Before(later) {
			t.Fatalf("read returned %v before its moved deadline", later.Sub(r.at))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read still blocked")
	}
}

// TestInProcConnWakeAllocs pins that parking costs nothing: a read that
// blocks with a deadline, and so enters the sweeper's heap, and is then
// woken by a write allocates nothing.
func TestInProcConnWakeAllocs(t *testing.T) {
	var sw sweeper
	defer sw.stop()
	a, b := newInprocPair(&sw)
	defer a.Close()
	_ = b.SetReadDeadline(time.Now().Add(10 * time.Minute))
	got := make(chan struct{})
	go func() {
		defer close(got)
		p := make([]byte, 1)
		for {
			if _, err := b.Read(p); err != nil {
				return
			}
			got <- struct{}{}
		}
	}()
	msg := []byte{1}
	allocs := testing.AllocsPerRun(200, func() {
		blockedOn(t, b.in, &b.in.r)
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		<-got
	})
	_ = b.Close()
	<-got
	if allocs != 0 {
		t.Fatalf("a parked read woken by a write: %v allocations, want 0", allocs)
	}
}

// recycledPair dials on sw, closes both ends and takes pairs from the
// pool until it hands that pair out again, which it then opens as a new
// connection: it returns the old ends and the new ones. A sync.Pool may
// drop what it is given (the race detector makes it drop a quarter) or
// keep it out of another processor's reach, so it starts over a few
// times; the pairs it takes in between go back unopened.
func recycledPair(t *testing.T, sw *sweeper) (a, b, c, d *inprocConn) {
	t.Helper()
	for round := 0; round < 20; round++ {
		a, b = newInprocPair(sw)
		_ = a.Close()
		_ = b.Close()
		var held []*pair
		for i := 0; i < 8; i++ {
			p := pairs.Get().(*pair)
			if p == a.p {
				c, d = p.open(sw)
				break
			}
			held = append(held, p)
		}
		for _, p := range held {
			pairs.Put(p)
		}
		if c != nil {
			return a, b, c, d
		}
	}
	t.Fatal("a closed pair was never handed out again")
	return
}

// TestInProcConnStaleEnds reuses a recycled pair and then calls every
// method on the previous connection's ends, as a connection set's
// shutdown, a registry dropping a stale request or a late deadline
// does: each fails like a closed end or does nothing, and the new
// connection keeps its bytes, its deadlines and its open ends.
func TestInProcConnStaleEnds(t *testing.T) {
	var sw sweeper
	defer sw.stop()
	a, b, c, d := recycledPair(t, &sw)
	defer c.Close()
	defer d.Close()
	if _, err := c.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []*inprocConn{a, b} {
		wantResult(t, "stale Read", goRead(stale, 8), 0, io.ErrClosedPipe)
		wantResult(t, "stale Write", goWrite(stale, []byte("old")), 0, io.ErrClosedPipe)
		for _, set := range []func(time.Time) error{stale.SetDeadline, stale.SetReadDeadline, stale.SetWriteDeadline} {
			if err := set(time.Now().Add(-time.Second)); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("stale deadline: %v, want %v", err, io.ErrClosedPipe)
			}
		}
		if err := stale.Close(); err != nil {
			t.Errorf("stale Close: %v", err)
		}
	}
	// The new ends are open, have no deadline and hold exactly their own
	// bytes, in both directions.
	got := make([]byte, 8)
	if n, err := d.Read(got); err != nil || string(got[:n]) != "new" {
		t.Fatalf("new connection read (%q, %v), want \"new\"", got[:n], err)
	}
	if _, err := d.Write([]byte("back")); err != nil {
		t.Fatalf("new connection write: %v", err)
	}
	if n, err := c.Read(got); err != nil || string(got[:n]) != "back" {
		t.Fatalf("new connection read (%q, %v), want \"back\"", got[:n], err)
	}
	done := goRead(d, 8)
	blockedOn(t, d.in, &d.in.r)
	stillBlocked(t, "new connection's read", done)
	_ = c.Close()
	wantResult(t, "new connection's read after its peer closed", done, 0, io.EOF)
}

// TestInProcConnParkedPairNotRecycled closes both ends while a read is
// parked on one of them: the pair must stay out of the pool until that
// read has looked at its queue again, so the closing call leaves the
// generation alone. One processor keeps the woken read from running
// before the second Close has decided.
func TestInProcConnParkedPairNotRecycled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var sw sweeper
	defer sw.stop()
	for i := 0; i < 20; i++ {
		a, b := newInprocPair(&sw)
		_ = b.SetReadDeadline(time.Now().Add(10 * time.Minute))
		done := goRead(b, 8)
		blockedOn(t, b.in, &b.in.r)
		_ = a.Close()
		_ = b.Close()
		b.in.mu.Lock()
		gen := b.in.gen
		b.in.mu.Unlock()
		if gen != b.gen {
			t.Fatal("a pair was recycled with a read still parked on it")
		}
		wantResult(t, "parked read", done, 0, io.ErrClosedPipe)
	}
	if n := sw.pending(); n != 0 {
		t.Fatalf("%d entries left in the sweeper's heap", n)
	}
}
