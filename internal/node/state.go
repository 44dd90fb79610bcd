package node

import (
	"errors"
	"fmt"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/journal"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/wireproto"
)

// This file is the node's durable crash-recovery layer: what gets
// written to the journal, when, and how a relaunched process turns the
// journal back into a live participant that is bit-identical to one
// that never crashed.
//
// Three record kinds, in strict append order:
//
//	recIdentity    once, at first open: who this journal belongs to
//	               (digest/index/population/epoch/seed/listen address).
//	               A reopen that disagrees is refused — replaying a
//	               journal under different provisioning would corrupt
//	               the population, not just this peer.
//	recIteration   at each iteration start: the input centroids, the
//	               iteration's privacy spend, and everything already
//	               accumulated (traces, budget, counters).
//	recCheckpoint  at each exchange commit point: the full iteration
//	               state plus the committed slot. The append and fsync
//	               happen after the merge and before the initiator's
//	               FIN leg, which is what makes recovery exact — see
//	               the WAL-ordering note on Node.commit.
//
// Replay keeps only the newest iteration record and the checkpoints
// belonging to it (an iteration record supersedes the previous
// iteration's checkpoints). While a participant runs in slot order its
// newest checkpoint says it all: every own slot at or before it is
// done. A settled decryption tail commits its slots in whatever order
// their requests arrive, so there a checkpoint vouches for its own slot
// only — replay keeps the slot-order frontier (the newest checkpoint
// written before the state was settled, the one that completed it
// included) plus the set of slots journaled after it. Resume then
// re-executes the run from the top, skipping every slot at or before
// the frontier and every slot of that set, and replaying (and
// discarding) the shared-seed RNG draws the pre-crash run consumed, so
// the RNG cursors, the schedule mirror and the privacy accountant all
// sit exactly where they did at the crash.

// Journal record kinds.
const (
	recIdentity   byte = 1
	recIteration  byte = 2
	recCheckpoint byte = 3
)

// stateVecMax bounds decoded centroid/trace vector lengths in state
// records. The journal is this node's own writing, but a corrupted or
// hostile file must fail with ErrCorrupt, never an absurd allocation.
const stateVecMax = 1 << 20

// State is a node's durable protocol position: a crc-framed journal
// (internal/journal) holding the identity, per-iteration and per-commit
// records described above. Open it with OpenState and hand it to the
// node via Config.State; the node owns it afterwards (Close flushes and
// closes it).
type State struct {
	j        *journal.Journal
	identity *identity
	lastIter []byte // newest iteration record payload, raw
	// ckpts are the checkpoint payloads belonging to lastIter that resume
	// may need, oldest first: only the newest one up to the decryption
	// phase, every one from there on (attachState, which knows τ, tells
	// the frontier from the tail). Dropped once decoded.
	ckpts [][]byte
}

// identity pins a journal to the participant that wrote it.
type identity struct {
	digest uint64
	index  int
	n      int
	epoch  uint64
	seed   uint64
	addr   string
}

// OpenState opens (or creates) a node state journal and replays it. A
// torn final record — the crash landed mid-append — is truncated away
// by the journal layer; anything else that does not decode is
// journal.ErrCorrupt.
func OpenState(path string) (*State, error) {
	j, recs, err := journal.Open(path)
	if err != nil {
		return nil, err
	}
	st := &State{j: j}
	for _, r := range recs {
		switch r.Kind {
		case recIdentity:
			id, err := decodeIdentity(r.Payload)
			if err != nil {
				_ = j.Close()
				return nil, err
			}
			st.identity = &id
		case recIteration:
			// A new iteration supersedes the previous iteration's
			// checkpoints: they describe state the run has moved past.
			st.lastIter = r.Payload
			st.ckpts = nil
		case recCheckpoint:
			if n := len(st.ckpts); n > 0 && !(inDecPhase(st.ckpts[n-1]) && inDecPhase(r.Payload)) {
				st.ckpts = st.ckpts[:0]
			}
			st.ckpts = append(st.ckpts, r.Payload)
		default:
			_ = j.Close()
			return nil, fmt.Errorf("%w: unknown state record kind %d", journal.ErrCorrupt, r.Kind)
		}
	}
	if st.identity == nil && (st.lastIter != nil || st.ckpts != nil) {
		_ = j.Close()
		return nil, fmt.Errorf("%w: protocol records precede the identity record", journal.ErrCorrupt)
	}
	return st, nil
}

// Path returns the journal's file path.
func (st *State) Path() string { return st.j.Path() }

// Lag reports the journal's unsynced tail (entries and bytes appended
// since the last fsync) — zero whenever the node is between commits,
// which is what /healthz reports as journal lag.
func (st *State) Lag() (entries int, bytes int64) {
	if st == nil || st.j == nil {
		return 0, 0
	}
	return st.j.Lag()
}

// Close flushes and closes the journal.
func (st *State) Close() error {
	if st == nil || st.j == nil {
		return nil
	}
	return st.j.Close()
}

// Resuming reports whether the journal already carries an identity —
// i.e. this open is a relaunch of an existing participant, not a first
// start.
func (st *State) Resuming() bool { return st != nil && st.identity != nil }

// savedAddr returns the listen address the journal's identity recorded,
// or "" (nil-safe). A relaunch tries to rebind it so peers' address
// books stay valid across the kill window.
func (st *State) savedAddr() string {
	if st == nil || st.identity == nil {
		return ""
	}
	return st.identity.addr
}

// --- record codecs ---

// The records are written and read with wireproto's cursor (Enc/Dec).
// corrupt marks a record's decode failure as journal corruption, once
// per record.
func corrupt(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %s record: %v", journal.ErrCorrupt, what, err)
}

// --- identity record ---

func encodeIdentity(id identity) []byte {
	var e wireproto.Enc
	e.U64(id.digest)
	e.U32(uint32(id.index))
	e.U32(uint32(id.n))
	e.U64(id.epoch)
	e.U64(id.seed)
	e.Blob([]byte(id.addr))
	return e.B
}

func decodeIdentity(p []byte) (identity, error) {
	d := wireproto.Dec{B: p}
	id := identity{
		digest: d.U64(),
		index:  int(d.U32()),
		n:      int(d.U32()),
		epoch:  d.U64(),
		seed:   d.U64(),
	}
	id.addr = string(d.Blob(256))
	return id, corrupt("identity", d.Done())
}

// --- iteration record ---

// iterationRecord is what RunContext needs to re-enter the loop at the
// top of iteration iter: its input centroids (nil slots preserved — the
// protocol dimensions are population-wide constants), the budget
// already spent, the traces already released, and the wire counters.
type iterationRecord struct {
	iter        int
	epsIter     float64
	totalBefore float64
	centroids   []timeseries.Series
	traces      []core.IterationTrace
	counters    wireproto.Counters
}

func encodeIteration(r iterationRecord) []byte {
	var e wireproto.Enc
	e.U32(uint32(r.iter))
	e.F64(r.epsIter)
	e.F64(r.totalBefore)
	e.U32(uint32(len(r.centroids)))
	for _, c := range r.centroids {
		if c == nil {
			e.U8(0)
			continue
		}
		e.U8(1)
		e.U32(uint32(len(c)))
		for _, v := range c {
			e.F64(v)
		}
	}
	e.U32(uint32(len(r.traces)))
	for _, t := range r.traces {
		e.U32(uint32(t.Iteration))
		e.U32(uint32(t.CentroidsIn))
		e.U32(uint32(t.CentroidsOut))
		e.F64(t.EpsilonSpent)
		e.U32(uint32(t.SumCycles))
		e.U32(uint32(t.DissCycles))
		e.U32(uint32(t.DecryptCycles))
		e.F64(t.PreInertia)
		e.F64(t.PostInertia)
		e.U32(uint32(t.ShareApplications))
	}
	return r.counters.AppendTo(e.B)
}

func decodeIteration(p []byte) (iterationRecord, error) {
	d := wireproto.Dec{B: p}
	r := iterationRecord{
		iter:        int(d.U32()),
		epsIter:     d.F64(),
		totalBefore: d.F64(),
	}
	k := int(d.U32())
	if k > stateVecMax {
		d.Fail("centroid count exceeds bound")
	}
	for i := 0; i < k && d.Err() == nil; i++ {
		if d.U8() == 0 {
			r.centroids = append(r.centroids, nil)
			continue
		}
		dim := int(d.U32())
		if dim > stateVecMax {
			d.Fail("centroid length exceeds bound")
			break
		}
		c := make(timeseries.Series, 0, min(dim, len(d.B)/8+1))
		for j := 0; j < dim && d.Err() == nil; j++ {
			c = append(c, d.F64())
		}
		r.centroids = append(r.centroids, c)
	}
	nt := int(d.U32())
	if nt > stateVecMax {
		d.Fail("trace count exceeds bound")
	}
	for i := 0; i < nt && d.Err() == nil; i++ {
		var t core.IterationTrace
		t.Iteration = int(d.U32())
		t.CentroidsIn = int(d.U32())
		t.CentroidsOut = int(d.U32())
		t.EpsilonSpent = d.F64()
		t.SumCycles = int(d.U32())
		t.DissCycles = int(d.U32())
		t.DecryptCycles = int(d.U32())
		t.PreInertia = d.F64()
		t.PostInertia = d.F64()
		t.ShareApplications = int(d.U32())
		r.traces = append(r.traces, t)
	}
	r.counters = d.Counters()
	if err := d.Done(); err != nil {
		return iterationRecord{}, corrupt("iteration", err)
	}
	return r, nil
}

// --- checkpoint record ---

// checkpointRecord is one commit point's full iteration state. The
// three protocol segments reuse the wire codecs (with zeroed exchange
// headers) — the sum state, the elected vector with its identifier and
// weight, and the share set with this participant's own key-share, if
// applied, as the fresh share. The journal speaks the same canonical
// encoding as the wire, so the bounded decoders and their fuzzing cover
// both — and so a
// checkpoint is written from the state's cached wire images rather than
// re-encoded at every commit, and a replayed checkpoint hands the
// restored state the journal's bytes as its images.
type checkpointRecord struct {
	pos      slot
	st       *iterState // fields of phases pos had not reached stay unset
	counters wireproto.Counters
}

func encodeCheckpoint(s slot, st *iterState, ctrs wireproto.Counters) []byte {
	segs := []wireproto.Message{
		sumOut(st, wireproto.ExchangeHdr{}),
		dissOut(st),
		decOut(st),
	}
	size := 4*4 + ctrs.Size()
	for _, m := range segs {
		size += 4 + m.Size()
	}
	e := wireproto.Enc{B: make([]byte, 0, size)}
	e.U32(uint32(s.iter))
	e.U32(uint32(s.phase))
	e.U32(uint32(s.cycle))
	e.U32(uint32(s.seq))
	// Each segment is a Blob, encoded in place.
	for _, m := range segs {
		e.U32(uint32(m.Size()))
		e.B = m.AppendTo(e.B)
	}
	return ctrs.AppendTo(e.B)
}

// decodeCheckpoint rebuilds the live iteration state from a checkpoint.
// Fields belonging to phases the checkpoint had not reached yet stay
// unset: the resumed iterate computes them at the phase boundary
// exactly as an uncrashed run would.
func decodeCheckpoint(p []byte, lim wireproto.Limits) (checkpointRecord, error) {
	r, sumB, dissB, decB, err := splitCheckpoint(p, lim)
	if err != nil {
		return checkpointRecord{}, err
	}
	sum, err := wireproto.ScanSum(sumB, lim)
	if err != nil {
		return checkpointRecord{}, corrupt("checkpoint", err)
	}
	diss, err := wireproto.ScanDiss(dissB, lim)
	if err != nil {
		return checkpointRecord{}, corrupt("checkpoint", err)
	}
	dec, err := wireproto.ScanDec(decB, lim)
	if err != nil {
		return checkpointRecord{}, corrupt("checkpoint", err)
	}
	// The journal's bytes become the sum state's image: restoring it
	// materializes no value.
	r.st = &iterState{
		Means: sum.Means.Copy(),
		CtrS:  sum.CtrSigma,
		CtrW:  sum.CtrOmega,
	}
	if r.pos.phase >= phaseDiss {
		if !diss.Carries() {
			return checkpointRecord{}, corrupt("checkpoint", errors.New("no elected vector"))
		}
		r.st.VecID, r.st.Vec, r.st.VecOmega = diss.ID, diss.CTs.Copy(), diss.Omega()
	}
	if r.pos.phase >= phaseDec {
		r.st.DecParts = make([]eesum.Part, 0, dec.Gathered())
		for c, i := 0, 0; i < dec.Gathered(); i++ {
			idx, part, next := dec.At(c)
			if part.Len() == 0 {
				return checkpointRecord{}, corrupt("checkpoint", fmt.Errorf("key-share %d without its partial decryptions", idx))
			}
			r.st.DecParts = append(r.st.DecParts, eesum.Part{Idx: idx, V: part.Copy()})
			c = next
		}
		r.st.Own = dec.Fresh.Copy()
		r.st.Released = dec.Release()
	}
	return r, nil
}

// inDecPhase peeks at a checkpoint payload's phase field. Anything too
// short to have one is left for decodeCheckpoint to refuse.
func inDecPhase(p []byte) bool {
	d := wireproto.Dec{B: p}
	d.U32()
	return int(d.U32()) == phaseDec && d.Err() == nil
}

// splitCheckpoint decodes a checkpoint's fixed fields — the committed
// slot and the counter snapshot — and bounds its three protocol
// segments, leaving them encoded.
func splitCheckpoint(p []byte, lim wireproto.Limits) (r checkpointRecord, sumB, dissB, decB []byte, err error) {
	d := wireproto.Dec{B: p}
	r.pos = slot{iter: int(d.U32()), phase: int(d.U32()), cycle: int(d.U32()), seq: int(d.U32())}
	sumB = d.Blob(lim.MaxFrameLen)
	dissB = d.Blob(lim.MaxFrameLen)
	decB = d.Blob(lim.MaxFrameLen)
	r.counters = d.Counters()
	if r.pos.phase < phaseSum || r.pos.phase > phaseDec {
		d.Fail(fmt.Sprintf("phase %d out of range", r.pos.phase))
	}
	if err := d.Done(); err != nil {
		return checkpointRecord{}, nil, nil, nil, corrupt("checkpoint", err)
	}
	return r, sumB, dissB, decB, nil
}

// peekCheckpoint reads what replay needs from a checkpoint without
// rebuilding its state: the committed slot, the counter snapshot, and
// how many key-shares the decryption state held.
func peekCheckpoint(p []byte, lim wireproto.Limits) (checkpointRecord, int, error) {
	r, _, _, decB, err := splitCheckpoint(p, lim)
	if err != nil {
		return checkpointRecord{}, 0, err
	}
	dec, err := wireproto.ScanDec(decB, lim)
	if err != nil {
		return checkpointRecord{}, 0, corrupt("checkpoint", err)
	}
	return r, dec.Gathered(), nil
}

// replayCheckpoints splits an iteration's retained checkpoints into the
// slot-order frontier — decoded in full: it carries the state to resume
// with — and the set of tail slots journaled after the state settled
// (see the file comment), and returns the newest counter snapshot.
func replayCheckpoints(ckpts [][]byte, lim wireproto.Limits, tau int) (checkpointRecord, map[slot]bool, error) {
	frontier, settled := 0, false
	var tail map[slot]bool
	var ctrs wireproto.Counters
	for i, p := range ckpts {
		r, parts, err := peekCheckpoint(p, lim)
		if err != nil {
			return checkpointRecord{}, nil, err
		}
		ctrs = r.counters
		if settled && parts >= tau {
			if tail == nil {
				tail = make(map[slot]bool)
			}
			tail[r.pos] = true
			continue
		}
		frontier, settled, tail = i, r.pos.phase == phaseDec && parts >= tau, nil
	}
	ck, err := decodeCheckpoint(ckpts[frontier], lim)
	ck.counters = ctrs
	return ck, tail, err
}

// --- append paths ---

func (st *State) append(kind byte, payload []byte) error {
	if err := st.j.Append(kind, payload); err != nil {
		return err
	}
	return st.j.Sync()
}

func (st *State) saveIdentity(id identity) error {
	if err := st.append(recIdentity, encodeIdentity(id)); err != nil {
		return err
	}
	st.identity = &id
	return nil
}

func (st *State) saveIteration(r iterationRecord) error {
	return st.append(recIteration, encodeIteration(r))
}

func (st *State) saveCheckpoint(s slot, is *iterState, ctrs wireproto.Counters) error {
	return st.append(recCheckpoint, encodeCheckpoint(s, is, ctrs))
}

// --- node integration ---

// resumePoint is a decoded journal handed to RunContext: where to
// re-enter the protocol and with what state.
type resumePoint struct {
	iter        int     // iteration to re-enter
	epsIter     float64 // its recorded privacy spend (sanity only; recomputed)
	totalBefore float64 // budget spent by completed iterations
	centroids   []timeseries.Series
	traces      []core.IterationTrace
	pos         *slot         // slot-order frontier, nil: resume at the iteration start
	st          *iterState    // restored live state, non-nil iff pos is
	tail        map[slot]bool // settled-tail slots committed after pos, in whatever order
}

// committed reports whether the pre-crash run journaled slot s as done:
// re-executing it would double-apply (or, in a settled tail,
// double-count) its commit.
func (rz *resumePoint) committed(s slot) bool {
	return rz != nil && rz.pos != nil && (!rz.pos.before(s) || rz.tail[s])
}

// attachState binds an opened journal to the node: a fresh journal gets
// the identity record; an existing one is verified against this
// provisioning and decoded into the resume point RunContext consumes.
// Called from New before any background goroutine starts.
func (nd *Node) attachState(st *State) error {
	if st.identity != nil {
		id := st.identity
		if id.digest != nd.digest || id.index != nd.cfg.Index || id.n != nd.cfg.N ||
			id.epoch != nd.epoch || id.seed != nd.cfg.Proto.Seed {
			return fmt.Errorf("%w: journal %s was written by participant %d of %d under digest %016x, epoch %d",
				ErrConfigMismatch, st.Path(), id.index, id.n, id.digest, id.epoch)
		}
		nd.resuming = true
	} else if err := st.saveIdentity(identity{
		digest: nd.digest, index: nd.cfg.Index, n: nd.cfg.N,
		epoch: nd.epoch, seed: nd.cfg.Proto.Seed, addr: nd.addr,
	}); err != nil {
		return err
	}
	nd.state = st
	nd.resumeAnn = wireproto.Resume{
		Index: uint32(nd.cfg.Index), Addr: nd.addr,
		N: uint32(nd.cfg.N), Digest: nd.digest,
	}
	if st.lastIter == nil {
		return nil
	}
	itRec, err := decodeIteration(st.lastIter)
	if err != nil {
		return err
	}
	rp := &resumePoint{
		iter:        itRec.iter,
		epsIter:     itRec.epsIter,
		totalBefore: itRec.totalBefore,
		centroids:   itRec.centroids,
		traces:      itRec.traces,
	}
	ctrs := itRec.counters
	if len(st.ckpts) > 0 {
		ck, tail, err := replayCheckpoints(st.ckpts, nd.lim, nd.cfg.Scheme.Threshold())
		st.ckpts = nil
		if err != nil {
			return err
		}
		if ck.pos.iter == itRec.iter {
			pos := ck.pos
			rp.pos = &pos
			rp.st = ck.st
			rp.tail = tail
			ctrs = ck.counters
			nd.resumeAnn.Iter = uint32(pos.iter)
			nd.resumeAnn.Phase = uint32(pos.phase)
			nd.resumeAnn.Cycle = uint32(pos.cycle)
			nd.resumeAnn.Seq = uint32(pos.seq)
		}
	}
	nd.counters.Restore(ctrs)
	nd.resume = rp
	return nil
}

// commit books one exchange commit and makes it durable. Ordering is
// the whole point: the merge has been applied, the counter and the
// journal append+fsync happen HERE, and only then does the initiator
// send its FIN. A crash in the merge→fsync window loses at most this
// one merge, and both directions of that loss are legal protocol
// outcomes: an initiator that loses it never sent the FIN, so the
// responder never merged and the exchange simply didn't happen; a
// responder that loses it leaves the initiator committed alone —
// exactly the paper's Section 6.1.5 half-completed exchange. A resume
// never double-applies because it skips every slot the journal holds as
// committed.
//
// In a settled tail commits arrive from several goroutines at once (the
// main loop's initiator slots, the passively served responder slots);
// commitMu serializes them, so the journal is appended by one writer at
// a time, every checkpoint's counter snapshot covers exactly the
// commits journaled up to and including it, and the commit hook — a
// harness's kill switch, written for one caller — is never re-entered.
// Encoding a checkpoint only appends the state's vector images, so it
// writes nothing that the goroutines serving a settled state read.
//
// A journal that stops taking writes halts the node instead of running
// on: continuing un-journaled would let a later crash replay exchanges
// the population already saw happen. The halt is the non-blocking kind:
// a passive commit runs on a connection goroutine Close would wait for.
func (nd *Node) commit(s slot, st *iterState, initiator bool) {
	count := &nd.counters.Responded
	if initiator {
		count = &nd.counters.Initiated
	}
	if nd.state == nil && nd.cfg.CommitHook == nil {
		count.Add(1)
		return
	}
	nd.commitMu.Lock()
	defer nd.commitMu.Unlock()
	count.Add(1)
	if nd.state != nil && nd.stateErr == nil {
		if err := nd.state.saveCheckpoint(s, st, nd.counters.Snapshot()); err != nil {
			nd.stateErr = fmt.Errorf("node %d: journal write failed: %w", nd.cfg.Index, err)
			nd.halt()
			return
		}
	}
	if nd.cfg.CommitHook != nil && nd.cfg.CommitHook(s.phase, s.iter, s.cycle, s.seq, initiator) {
		nd.halt() // simulated kill −9 at a commit point
	}
}

// journalErr returns the sticky journal write failure, if any.
func (nd *Node) journalErr() error {
	nd.commitMu.Lock()
	defer nd.commitMu.Unlock()
	return nd.stateErr
}
