package node

import (
	"math"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/homenc"
)

// ConfigDigest hashes the shared protocol parameters every peer of a
// population must agree on — population size, cluster count, fixed-
// point precision, packing slot layout, the fixed per-phase cycle
// budgets, iteration cap, convergence threshold θ and the protocol
// vector dimension. Two daemons provisioned inconsistently (different
// -k, -pack-slots, -frac-bits, -population, …) produce different
// digests; the hello handshake carries the digest so the mismatch is
// rejected at the door (with ErrConfigMismatch) instead of diverging
// silently mid-run — or, for θ, stopping at different iterations.
//
// The seed is deliberately excluded: it is already enforced by the
// population epoch on every frame. proto must be normalized (node.New
// and mux.NewHost digest after Normalize, so defaulted and explicit
// configurations of the same deployment agree).
func ConfigDigest(proto core.Config, n, seriesDim int, pack homenc.PackedCodec) uint64 {
	h := mix64(0xC41AD16E57)
	for _, v := range []uint64{
		uint64(int64(n)),
		uint64(int64(proto.K)),
		uint64(int64(proto.FracBits)),
		uint64(int64(proto.Exchanges)),
		uint64(int64(proto.DissCycles)),
		uint64(int64(proto.DecryptCycles)),
		uint64(int64(proto.MaxIterations)),
		math.Float64bits(proto.Threshold),
		uint64(int64(seriesDim)),
		uint64(int64(pack.Slots)),
		uint64(pack.SlotBits),
	} {
		h = mix64(h ^ v)
	}
	return h
}

// mix64 is SplitMix64's finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
