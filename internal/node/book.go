package node

import (
	"sort"
	"sync"

	"chiaroscuro/internal/wireproto"
)

// Book is an address-book view: the Newscast-style local view Λ mapping
// population indices to dialable addresses with freshness heartbeats.
// Unlike the protocol state, the book is connectivity metadata — it is
// filled by hello/view gossip, never by the deterministic schedule, and
// its contents carry no participant data.
//
// A Book serves one node in the classic single-daemon deployment, or an
// entire mux.Host worth of co-located virtual nodes: local indices are
// registered with AddLocal and are immune to remote gossip (merge,
// learn, leave), so a hostile or stale view item can never redirect or
// expel a participant this process hosts.
type Book struct {
	mu     sync.Mutex
	n      int // population size; out-of-range indices are refused
	locals map[int]bool
	items  map[int]wireproto.ViewItem
	clock  int64
	gone   map[int]bool // peers that announced a graceful leave
}

// NewBook creates an empty book for a population of n.
func NewBook(n int) *Book {
	return &Book{
		n:      n,
		locals: make(map[int]bool),
		items:  make(map[int]wireproto.ViewItem, n),
		gone:   make(map[int]bool),
	}
}

// AddLocal registers a locally-hosted participant. Local entries are
// authoritative: gossip never overwrites or expels them.
func (b *Book) AddLocal(idx int, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= b.n {
		return
	}
	b.locals[idx] = true
	b.items[idx] = wireproto.ViewItem{Index: uint32(idx), Addr: addr, Heartbeat: 0}
	delete(b.gone, idx)
}

// Merge folds incoming view items in, keeping the freshest entry per
// index (the Newscast merge rule over (index, heartbeat)). Items naming
// indices outside the population or hosted locally are dropped: junk
// entries must not be able to satisfy the roster-complete check, grow
// the book, or redirect a local participant.
func (b *Book) Merge(items []wireproto.ViewItem) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, it := range items {
		idx := int(it.Index)
		if idx < 0 || idx >= b.n || b.locals[idx] {
			continue
		}
		if prev, ok := b.items[idx]; !ok || it.Heartbeat > prev.Heartbeat {
			b.items[idx] = it
		}
	}
}

// Roster returns the current view with fresh local items — the payload
// of a view exchange or a hello-ack.
func (b *Book) Roster() []wireproto.ViewItem {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock++
	//lint:orderfree independent per-index writes of the same clock value
	for idx := range b.locals {
		it := b.items[idx]
		it.Heartbeat = b.clock
		b.items[idx] = it
	}
	// Emit in ascending index order: the roster is a wire payload, and a
	// canonical encoding keeps same-seed runs byte-identical on the wire.
	idxs := make([]int, 0, len(b.items))
	for idx := range b.items {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	out := make([]wireproto.ViewItem, 0, len(idxs))
	for _, idx := range idxs {
		out = append(out, b.items[idx])
	}
	return out
}

// Learn records a directly-announced peer address (a hello) as the
// freshest knowledge about that index, clearing a departure mark.
func (b *Book) Learn(idx int, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= b.n || b.locals[idx] {
		return
	}
	b.clock++
	b.items[idx] = wireproto.ViewItem{Index: uint32(idx), Addr: addr, Heartbeat: b.clock}
	delete(b.gone, idx)
}

// Addr resolves a population index to its last known address ("" when
// unknown or departed).
func (b *Book) Addr(idx int) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gone[idx] {
		return ""
	}
	it, ok := b.items[idx]
	if !ok {
		return ""
	}
	return it.Addr
}

// Size returns how many distinct participants the view covers.
func (b *Book) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// MarkGone records a graceful departure. Local participants cannot be
// expelled by a remote leave notice.
func (b *Book) MarkGone(idx int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.locals[idx] {
		return
	}
	b.gone[idx] = true
}
