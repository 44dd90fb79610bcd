//go:build !race

package core

// raceEnabled trims the phase-length validation grid under the race
// detector, which slows the simulator about tenfold.
const raceEnabled = false
