// Package randx provides the random variates Chiaroscuro needs on top of
// the standard library: Laplace noise, Gamma variates with arbitrary
// (including sub-unit) shape for the divisible noise-shares of Lemma 1,
// and small conveniences for the synthetic data generators.
//
// All sampling is driven by an explicit *RNG so every experiment in the
// repository is reproducible from a seed.
package randx

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random source (PCG) with the sampling
// helpers used across the repository.
type RNG struct {
	*rand.Rand
}

// New returns an RNG seeded with the pair (seed, stream). Distinct
// streams with the same seed yield independent sequences, which the
// simulator uses to give every node its own source.
func New(seed, stream uint64) *RNG {
	return &RNG{rand.New(rand.NewPCG(seed, stream^0x9e3779b97f4a7c15))}
}

// Split derives a new independent RNG from r, keyed by id. It does not
// disturb r's own sequence beyond consuming two values.
func (r *RNG) Split(id uint64) *RNG {
	return New(r.Uint64(), r.Uint64()^id)
}

// Uniform returns a uniform variate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Gaussian(mu, sigma))
}

// Laplace returns a Laplace variate centered at 0 with scale lambda,
// i.e. density f(x) = exp(-|x|/lambda) / (2 lambda)  (Definition 4).
func (r *RNG) Laplace(lambda float64) float64 {
	// Inverse CDF on u ~ U(-1/2, 1/2): x = -lambda * sign(u) * ln(1-2|u|).
	u := r.Float64() - 0.5
	if u >= 0 {
		return -lambda * math.Log(1-2*u)
	}
	return lambda * math.Log(1+2*u)
}

// Gamma returns a Gamma(shape, scale) variate with density
//
//	g(x; k, θ) = x^(k-1) e^(-x/θ) / (Γ(k) θ^k),  x >= 0.
//
// Marsaglia–Tsang squeeze for shape >= 1, boosted with U^(1/shape) for
// shape < 1. The noise-shares of Definition 5 use shape = 1/nν, which is
// typically tiny, so the boost path is the hot one.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("randx: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// G(a) = G(a+1) * U^(1/a)   (Marsaglia–Tsang boost).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// NoiseShare returns one noise-share ν = G1(nShares, lambda) − G2(nShares,
// lambda) from Definition 5 of the paper: the difference of two i.i.d.
// Gamma(1/nShares, lambda) variates. Summing nShares independent
// NoiseShare values yields an exact Laplace(lambda) variate (Lemma 1,
// infinite divisibility of the Laplace distribution).
func (r *RNG) NoiseShare(nShares int, lambda float64) float64 {
	if nShares < 1 {
		panic("randx: NoiseShare requires nShares >= 1")
	}
	shape := 1 / float64(nShares)
	return r.Gamma(shape, lambda) - r.Gamma(shape, lambda)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	return r.Rand.Perm(n)
}

// IntN returns a uniform int in [0, n).
func (r *RNG) IntN(n int) int { return r.Rand.IntN(n) }

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Categorical draws an index from the (unnormalized) weight vector w.
func (r *RNG) Categorical(w []float64) int {
	var total float64
	for _, v := range w {
		total += v
	}
	x := r.Float64() * total
	for i, v := range w {
		x -= v
		if x < 0 {
			return i
		}
	}
	return len(w) - 1
}
