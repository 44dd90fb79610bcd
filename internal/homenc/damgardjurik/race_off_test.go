//go:build !race

package damgardjurik

// raceEnabled skips the allocation bounds under the race detector:
// math/big's internal pools drop entries there, so the same kernel
// allocates more.
const raceEnabled = false
