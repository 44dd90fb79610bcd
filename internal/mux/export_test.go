package mux

// pending reports how many queue sides are in the sweeper's heap.
func (sw *sweeper) pending() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.heap)
}

// SweepPending reports how many blocked in-process calls' queue sides
// h's sweeper holds.
func SweepPending(h *Host) int { return h.sweep.pending() }

// HostConns reports how many connections h's own endpoint tracks.
func HostConns(h *Host) int { return h.ep.Conns() }
