//go:build race

package eesum

// raceEnabled holds the Damgård–Jurik merge to a looser allocation
// bound under the race detector: math/big's internal pools drop entries
// there, so the same kernel allocates per element.
const raceEnabled = true
