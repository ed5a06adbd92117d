// Package randx provides a deterministic random source and the sampling
// distributions the synthetic eDonkey workload is built from.
//
// All generators are seeded explicitly; two runs with the same seed
// produce byte-identical workloads, which makes every experiment in the
// repository reproducible. The package wraps math/rand/v2's PCG and adds
// the distributions the standard library lacks in v2 (bounded Zipf,
// Pareto, log-normal, Gamma, Weibull) plus an alias table for O(1) weighted
// sampling over multi-million-entry catalogs.
package randx

import (
	"math"
	"math/rand/v2"
	"slices"
)

// Rand is a deterministic random source with distribution helpers.
type Rand struct {
	src *rand.Rand
}

// New returns a Rand seeded from two 64-bit words.
func New(seed1, seed2 uint64) *Rand {
	return &Rand{src: rand.New(rand.NewPCG(seed1, seed2))}
}

// Split derives an independent child generator; streams with different
// labels are statistically independent and stable across runs.
func (r *Rand) Split(label uint64) *Rand {
	return New(r.src.Uint64()^label*0x9E3779B97F4A7C15, label+0x2545F4914F6CDD1D)
}

// Uint64 returns a uniformly random 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Uint32 returns a uniformly random 32-bit value.
func (r *Rand) Uint32() uint32 { return r.src.Uint32() }

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform value in [0,n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.src.Float64() < p }

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 { return r.src.ExpFloat64() }

// LogNormal returns exp(N(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) variate: xm * U^(-1/alpha).
// The tail P(X>x) = (xm/x)^alpha gives the power-law heavy tails the
// paper's file-popularity distributions exhibit.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("randx: Pareto requires positive parameters")
	}
	u := 1 - r.src.Float64() // in (0,1]
	return xm * math.Pow(u, -1/alpha)
}

// Gamma returns a Gamma(shape, scale) variate (mean shape*scale) using
// the Marsaglia-Tsang squeeze method, with the standard U^(1/shape)
// boost for shape < 1. Gamma interarrivals with shape k and mean m give
// a renewal process with coefficient of variation 1/sqrt(k): k > 1 is
// more regular than Poisson, k < 1 burstier.
func (r *Rand) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("randx: Gamma requires positive parameters")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		return r.Gamma(shape+1, scale) * math.Pow(r.src.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// Weibull returns a Weibull(shape, scale) variate by inversion:
// scale * (-ln U)^(1/shape). Shape < 1 gives heavy-tailed, bursty
// interarrivals (the classic P2P session-arrival finding); shape 1 is
// exponential; shape > 1 concentrates around the scale.
func (r *Rand) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("randx: Weibull requires positive parameters")
	}
	u := 1 - r.src.Float64() // in (0,1]
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials. It panics if p is not in (0,1].
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("randx: Geometric requires p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := 1 - r.src.Float64()
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int { return r.PermInto(nil, n) }

// PermInto is Perm drawn into p's storage, which it grows only when p
// cannot hold n: math/rand/v2's Perm, the identity shuffled by the same
// Fisher–Yates, so the same draws give the same permutation.
func (r *Rand) PermInto(p []int, n int) []int {
	p = slices.Grow(p[:0], n)[:n]
	for i := range p {
		p[i] = i
	}
	r.src.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
