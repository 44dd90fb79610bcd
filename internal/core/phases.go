package core

import (
	"errors"
	"math"
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
//   - decryption is the τ-share gathering of Fig. 4(b), whose tail is
//     the spreading time plus the coupon-collector cost of the last
//     share: ⌈τ/4⌉ + ⌈log₃ np⌉ + 2 + ⌈np/(np−τ+1)⌉;
//   - under loss, both add the longest offline spell any of the np
//     participants has at that probability, ⌈ln(np/bound) / ln(1/loss)⌉.
//
// The terms are fitted to the schedule the engine draws, and the grid in
// phases_test.go checks every one of them against the adaptive
// simulator with a cycle to spare.
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
	dec = (tau+3)/4 + spread + 2 + (np+np-tau)/(np-tau+1)
	if loss > 0 {
		spell := int(math.Ceil(math.Log(float64(np)/PhaseFailureBound) / -math.Log(loss)))
		diss += spell
		dec += spell
	}
	return diss, dec
}
