package node

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chiaroscuro/internal/wireproto"
)

// launchResumeNodes is launchNodes with a crash-recovery victim: node
// victim runs with a durable journal under dir plus the given commit
// hook (which kills the node at a chosen commit point) and crash hook
// (which can swallow wire legs of the killed slot). When the hook kills
// the victim, its runner relaunches it once from the journal — same
// config, listen address rebound from the identity record — exactly as
// a restarted daemon would, and the relaunched instance's result stands
// in as the victim's. Unlike launchNodes it closes every node before
// returning, so callers can assert on goroutine baselines; victim -1
// runs a plain population (the uncrashed control, same policy and
// timeouts).
func launchResumeNodes(t *testing.T, ts testSetup, victim int, dir string, hook CommitHook, crash CrashHook, policy Policy) []*Result {
	t.Helper()
	return launchResumeNodesInspect(t, ts, victim, dir, hook, crash, policy, nil)
}

// launchResumeNodesInspect is launchResumeNodes with a look at the
// relaunched victim before it runs (nil: none) — what its journal
// replayed into.
func launchResumeNodesInspect(t *testing.T, ts testSetup, victim int, dir string, hook CommitHook, crash CrashHook, policy Policy, inspect func(relaunched *Node)) []*Result {
	t.Helper()
	journalPath := filepath.Join(dir, "victim.journal")
	nodes := make([]*Node, ts.n)
	var bootstrap string
	mkCfg := func(i int) Config {
		return Config{
			Index:           i,
			N:               ts.n,
			Series:          ts.data.Row(i),
			Scheme:          ts.scheme,
			Proto:           ts.proto,
			Bootstrap:       bootstrap,
			ExchangeTimeout: 20 * time.Second,
			FinTimeout:      500 * time.Millisecond,
			JoinTimeout:     20 * time.Second,
			ViewInterval:    200 * time.Millisecond,
			Policy:          policy,
		}
	}
	for i := 0; i < ts.n; i++ {
		cfg := mkCfg(i)
		if i == victim {
			st, err := OpenState(journalPath)
			if err != nil {
				t.Fatal(err)
			}
			cfg.State = st
			cfg.CommitHook = hook
			cfg.CrashHook = crash
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		nodes[i] = nd
		if i == 0 {
			bootstrap = nd.Addr()
		}
	}
	results := make([]*Result, ts.n)
	errs := make([]error, ts.n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			res, err := nd.Run()
			if i == victim && err != nil && nd.stopped.Load() {
				// The commit hook killed this instance mid-run (an
				// unrelated failure would not have closed the node);
				// its in-memory result dies with it. Relaunch from the
				// journal.
				_ = nd.Close()
				st, oerr := OpenState(journalPath)
				if oerr != nil {
					errs[i] = oerr
					return
				}
				cfg := mkCfg(i)
				cfg.State = st
				nd2, nerr := New(cfg)
				if nerr != nil {
					_ = st.Close()
					errs[i] = nerr
					return
				}
				t.Cleanup(func() { _ = nd2.Close() })
				if inspect != nil {
					inspect(nd2)
				}
				res, err = nd2.Run()
				_ = nd2.Close()
			}
			results[i], errs[i] = res, err
		}(i, nd)
	}
	wg.Wait()
	for _, nd := range nodes {
		_ = nd.Close()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results
}

// exchangeTotals sums the population's commit-relevant counters.
func exchangeTotals(results []*Result) (tot wireproto.Counters) {
	for _, r := range results {
		c := r.Counters
		tot.Initiated += c.Initiated
		tot.Responded += c.Responded
		tot.Retries += c.Retries
		tot.Timeouts += c.Timeouts
		tot.Resumed += c.Resumed
	}
	return tot
}

// TestCrashResumeBitMatchesSimulator is the crash-recovery acceptance
// e2e: a 12-peer networked run has one peer killed at a commit point (a
// responder merge, journaled before the kill), relaunched from its
// journal, and resumed mid-run via the Resume handshake. Node 0 must
// still release centroids bit-identical to the in-memory simulator, and
// every participant — the resumed victim above all — must release a
// view bit-identical to its own view in an uncrashed same-seed run,
// with identical exchange totals (a resume that lost or double-applied
// a single merge would shift both). Running the crash scenario twice
// pins that the kill schedule, the journal replay, and the counter
// totals are all same-seed deterministic.
func TestCrashResumeBitMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	baseline := runtime.NumGoroutine()
	ts := newSetup(t, 12, 0)
	policy := Policy{MaxRetries: 3, Backoff: 50 * time.Millisecond}
	simRes := runSim(t, ts)
	if len(simRes.Centroids) == 0 {
		t.Fatal("simulator produced no centroids")
	}
	clean := launchResumeNodes(t, ts, -1, "", nil, nil, policy)
	assertCentroidsEqual(t, "uncrashed vs sim", simRes.Centroids, clean[0].Centroids)
	cleanTot := exchangeTotals(clean)

	const victim = 3
	runCrash := func(dir string) ([]*Result, bool) {
		// Kill at the victim's first responder commit of sum cycle ≥ 2:
		// FIN received, both halves merged and journaled — nothing is
		// lost, so the resumed run must be bit-identical.
		var killed atomic.Bool
		hook := func(phase, iter, cycle, seq int, initiator bool) bool {
			if phase == phaseSum && cycle >= 2 && !initiator {
				return killed.CompareAndSwap(false, true)
			}
			return false
		}
		res := launchResumeNodes(t, ts, victim, dir, hook, nil, policy)
		return res, killed.Load()
	}

	resA, killedA := runCrash(t.TempDir())
	if !killedA {
		t.Fatal("commit hook never fired — nothing was killed")
	}
	assertCentroidsEqual(t, "crashed run node 0 vs sim", simRes.Centroids, resA[0].Centroids)
	// Each participant releases its own view (the simulator replays
	// participant 0's); bit-identity for the population is each view
	// matching its uncrashed self.
	for i := range resA {
		assertCentroidsEqual(t, fmt.Sprintf("crashed run node %d vs uncrashed", i),
			clean[i].Centroids, resA[i].Centroids)
	}
	totA := exchangeTotals(resA)
	if totA.Initiated != cleanTot.Initiated || totA.Responded != cleanTot.Responded {
		t.Fatalf("exchange totals diverged from the uncrashed run: init %d want %d, resp %d want %d",
			totA.Initiated, cleanTot.Initiated, totA.Responded, cleanTot.Responded)
	}
	if totA.Resumed == 0 {
		t.Fatal("no peer accepted the victim's Resume announcement")
	}

	resB, killedB := runCrash(t.TempDir())
	if !killedB {
		t.Fatal("replay: commit hook never fired")
	}
	assertCentroidsEqual(t, "replay vs first crashed run", resA[0].Centroids, resB[0].Centroids)
	assertCentroidsEqual(t, "replay victim vs first crashed run", resA[victim].Centroids, resB[victim].Centroids)
	totB := exchangeTotals(resB)
	// Initiated/Responded are the protocol's merge commits and must
	// replay exactly. Retry counts are NOT asserted: a retry happens
	// when a dial lands inside the victim's real relaunch window, which
	// is wall-clock-wide (a millisecond or two), not seed-determined.
	if totA.Initiated != totB.Initiated || totA.Responded != totB.Responded {
		t.Fatalf("same-seed replay counter totals diverged:\n  A %+v\n  B %+v", totA, totB)
	}
	checkNoLeak(t, baseline)
}

// TestKillDuringFinNeverDoubleApplies pins the half-completed-exchange
// crash window (Section 6.1.5): the victim is killed between its
// initiator merge commit (journaled) and the FIN leg, so the responder
// never learns the exchange committed and discards its half. The
// resumed victim must NOT re-run the journaled slot: the population's
// initiator-commit total stays exactly the uncrashed run's (a replayed
// merge would commit — and count — twice), the responder total is
// exactly one short (the discarded half), and the whole scenario
// replays to identical counter totals and centroids at the same seed.
func TestKillDuringFinNeverDoubleApplies(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	baseline := runtime.NumGoroutine()
	ts := newSetup(t, 12, 0)
	policy := Policy{MaxRetries: 3, Backoff: 50 * time.Millisecond}
	clean := launchResumeNodes(t, ts, -1, "", nil, nil, policy)
	cleanTot := exchangeTotals(clean)

	const victim = 3
	runCrash := func(dir string) ([]*Result, bool) {
		var killed atomic.Bool
		var killCycle, killSeq atomic.Int64
		hook := func(phase, iter, cycle, seq int, initiator bool) bool {
			if phase == phaseSum && cycle >= 2 && initiator {
				if killed.CompareAndSwap(false, true) {
					killCycle.Store(int64(cycle))
					killSeq.Store(int64(seq))
					return true
				}
			}
			return false
		}
		// The crash hook swallows exactly the killed slot's FIN: a real
		// kill -9 dies between the journal fsync and the send, and the
		// wire must see that silence regardless of how fast the closing
		// sockets drain buffered writes.
		crash := func(leg, phase, iter, cycle, seq int) bool {
			return leg == LegFin && phase == phaseSum && killed.Load() &&
				int64(cycle) == killCycle.Load() && int64(seq) == killSeq.Load()
		}
		res := launchResumeNodes(t, ts, victim, dir, hook, crash, policy)
		return res, killed.Load()
	}

	resA, killedA := runCrash(t.TempDir())
	if !killedA {
		t.Fatal("commit hook never fired — nothing was killed")
	}
	totA := exchangeTotals(resA)
	if totA.Initiated != cleanTot.Initiated {
		t.Fatalf("initiator commits %d, want %d: the journaled merge was lost or double-applied",
			totA.Initiated, cleanTot.Initiated)
	}
	if totA.Responded != cleanTot.Responded-1 {
		t.Fatalf("responder commits %d, want %d (exactly the killed exchange's half discarded)",
			totA.Responded, cleanTot.Responded-1)
	}
	for i, r := range resA {
		if len(r.Centroids) == 0 {
			t.Fatalf("node %d released no centroids", i)
		}
	}

	resB, killedB := runCrash(t.TempDir())
	if !killedB {
		t.Fatal("replay: commit hook never fired")
	}
	totB := exchangeTotals(resB)
	// As in the resume test, merge commits replay exactly; dial-retry
	// counts depend on wall-clock landing inside the relaunch window.
	if totA.Initiated != totB.Initiated || totA.Responded != totB.Responded {
		t.Fatalf("same-seed replay counter totals diverged:\n  A %+v\n  B %+v", totA, totB)
	}
	assertCentroidsEqual(t, "replay node 0", resA[0].Centroids, resB[0].Centroids)
	assertCentroidsEqual(t, "replay victim", resA[victim].Centroids, resB[victim].Centroids)
	checkNoLeak(t, baseline)
}
