package sim

import (
	"cmp"
	"slices"

	"chiaroscuro/internal/randx"
)

// UniformSampler draws exchange targets uniformly from the whole
// connected population — the idealized peer-sampling service behind the
// paper's "Tendencies" curves. It keeps no per-node state, so it scales
// to millions of nodes for the latency experiments.
type UniformSampler struct {
	n int
}

// Init implements Sampler.
func (u *UniformSampler) Init(n int, _ *randx.RNG) { u.n = n }

// Pick implements Sampler.
func (u *UniformSampler) Pick(from NodeID, alive []bool, rng *randx.RNG) (NodeID, bool) {
	// Rejection sampling; with bounded churn (< 1) this terminates fast.
	for tries := 0; tries < 64; tries++ {
		p := rng.IntN(u.n)
		if p != from && alive[p] {
			return p, true
		}
	}
	return 0, false
}

// AfterExchange implements Sampler.
func (u *UniformSampler) AfterExchange(_, _ NodeID, _ *randx.RNG) {}

// NewscastSampler approximates the Newscast membership protocol the
// paper's connectivity layer uses (Section 6.1.4, view size 30): every
// node keeps a bounded cache of (peer, freshness) descriptors; on every
// exchange the two caches are merged, deduplicated, and truncated to the
// freshest ViewSize entries, after each node inserts a fresh descriptor
// of itself. Views are int32-packed so a million-node simulation stays
// within memory.
type NewscastSampler struct {
	ViewSize int

	n      int
	view   [][]int32 // peer ids per node
	stamp  [][]int32 // freshness per entry (engine cycle when inserted)
	clock  int32
	merged []descriptor // scratch of AfterExchange
}

// descriptor is one Newscast cache entry: a peer and its freshness.
type descriptor struct{ id, st int32 }

// Init implements Sampler: views bootstrap with ViewSize random peers,
// mirroring the initial local view Λ handed out with the parameters.
func (ns *NewscastSampler) Init(n int, rng *randx.RNG) {
	if ns.ViewSize <= 0 {
		ns.ViewSize = 30
	}
	ns.n = n
	ns.view = make([][]int32, n)
	ns.stamp = make([][]int32, n)
	for i := 0; i < n; i++ {
		c := ns.ViewSize
		if c > n-1 {
			c = n - 1
		}
		ns.view[i] = make([]int32, 0, ns.ViewSize*2)
		ns.stamp[i] = make([]int32, 0, ns.ViewSize*2)
		seen := map[int32]bool{int32(i): true}
		for len(ns.view[i]) < c {
			p := int32(rng.IntN(n))
			if seen[p] {
				continue
			}
			seen[p] = true
			ns.view[i] = append(ns.view[i], p)
			ns.stamp[i] = append(ns.stamp[i], 0)
		}
	}
}

// Pick implements Sampler: a uniformly random live entry of the view.
func (ns *NewscastSampler) Pick(from NodeID, alive []bool, rng *randx.RNG) (NodeID, bool) {
	v := ns.view[from]
	if len(v) == 0 {
		return 0, false
	}
	for tries := 0; tries < 16; tries++ {
		p := int(v[rng.IntN(len(v))])
		if p != from && alive[p] {
			return p, true
		}
	}
	return 0, false
}

// AfterExchange implements Sampler: Newscast view merge. The merged
// cache keeps each peer's freshest descriptor and is ordered freshest
// first, equal stamps on the smaller id — a total order, so views are
// bit-reproducible per seed.
func (ns *NewscastSampler) AfterExchange(a, b NodeID, _ *randx.RNG) {
	ns.clock++
	m := ns.merged[:0]
	add := func(id, st int32) {
		for i := range m {
			if m[i].id == id {
				m[i].st = max(m[i].st, st)
				return
			}
		}
		m = append(m, descriptor{id, st})
	}
	for i, id := range ns.view[a] {
		add(id, ns.stamp[a][i])
	}
	for i, id := range ns.view[b] {
		add(id, ns.stamp[b][i])
	}
	// Each participant advertises a fresh descriptor of itself.
	add(int32(a), ns.clock)
	add(int32(b), ns.clock)
	slices.SortFunc(m, func(x, y descriptor) int {
		if x.st != y.st {
			return cmp.Compare(y.st, x.st)
		}
		return cmp.Compare(x.id, y.id)
	})
	ns.merged = m
	ns.rebuild(a, m)
	ns.rebuild(b, m)
}

// rebuild installs the freshest ViewSize entries of the ordered merged
// cache (minus self) as the node's new view.
func (ns *NewscastSampler) rebuild(node NodeID, merged []descriptor) {
	ns.view[node] = ns.view[node][:0]
	ns.stamp[node] = ns.stamp[node][:0]
	for _, d := range merged {
		if len(ns.view[node]) == ns.ViewSize {
			break
		}
		if d.id != int32(node) {
			ns.view[node] = append(ns.view[node], d.id)
			ns.stamp[node] = append(ns.stamp[node], d.st)
		}
	}
}

// View returns node's current view (for tests).
func (ns *NewscastSampler) View(node NodeID) []int32 { return ns.view[node] }
