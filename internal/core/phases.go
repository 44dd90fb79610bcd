package core

import (
	"errors"
	"math"
	"math/bits"
)

// PhaseFailureBound is the probability, per phase, that a phase of the
// length PhaseCycles derives leaves some participant unfinished.
const PhaseFailureBound = 1e-6

// ErrPhaseBudget marks a dissemination or decryption phase that ended
// with a participant unfinished: the correction not agreed on, or fewer
// than τ key-shares gathered, when its cycles ran out.
var ErrPhaseBudget = errors.New("core: phase ran out of cycles")

// PhaseCycles derives the fixed lengths of the two phases that follow
// the sum, for np participants, a decryption threshold of tau key-shares
// and a per-cycle probability loss that a participant exchanges with
// nobody (modeled churn, or faults that kill its exchanges). Each length
// holds at PhaseFailureBound:
//
//   - dissemination is push-pull rumour spreading of the smallest
//     correction identifier, done in log₃ np + O(log log np) cycles (Karp
//     et al., "Randomized Rumor Spreading", FOCS 2000): ⌈log₃ np⌉ + 4,
//     plus one under Newscast's bounded views;
//   - decryption is the τ-share gathering of Fig. 4(b) over the elected
//     vector, where two participants leave an exchange with the union of
//     their share sets: ⌈log₂ τ⌉ + 2, plus one when 2τ > np. Every
//     participant exchanges at least once a cycle and its first exchange
//     gives it two shares, so with disjoint sets a set doubles each
//     cycle and holds τ shares after ⌈log₂ τ⌉ of them. An exchange whose
//     two sets overlap, or whose partner lags, costs a participant at
//     most one doubling: its next exchange with a peer at the front
//     catches it up. Two such events are the tail; a third for one
//     participant stays below the bound (the counting model checks it at
//     the deployed populations). While 2τ ≤ np, two sets of τ/2 shares
//     drawn from np overlap by at most a quarter on average, one lag
//     event; past that the last doubling falls short in most exchanges,
//     and every participant needs one more;
//   - under loss, both add the longest offline spell any of the np
//     participants has at that probability, ⌈ln(np/bound) / ln(1/loss)⌉.
//
// The grid in phases_test.go checks both lengths against the adaptive
// simulator with a cycle to spare, and the decryption's tail against
// the counting model at the populations the benchmark and soaks run.
func PhaseCycles(np, tau int, loss float64, newscast bool) (diss, dec int) {
	np = max(np, 2)
	tau = min(max(tau, 1), np)
	spread := 0
	for reach := 1; reach < np; reach *= 3 {
		spread++
	}
	diss = spread + 4
	if newscast {
		diss++
	}
	dec = bits.Len(uint(tau-1)) + 2
	if 2*tau > np {
		dec++
	}
	if loss > 0 {
		spell := int(math.Ceil(math.Log(float64(np)/PhaseFailureBound) / -math.Log(loss)))
		diss += spell
		dec += spell
	}
	return diss, dec
}
