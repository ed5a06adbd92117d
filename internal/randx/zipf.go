package randx

import "math"

// Zipf samples from a bounded Zipf-Mandelbrot distribution:
//
//	P(k) proportional to ((v + k) ** -s)  for k in [0, imax]
//
// with s > 1 and v >= 1. This is the distribution math/rand (v1) shipped
// and math/rand/v2 dropped; the implementation below follows the same
// rejection method ("Rejection-Inversion to Generate Variates from
// Monotone Discrete Distributions", Hörmann & Derflinger, 1996).
type Zipf struct {
	r            *Rand
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
}

// NewZipf returns a Zipf sampler over [0, imax]. It panics if s <= 1,
// v < 1, or imax == 0 — the same contract as math/rand.NewZipf.
func NewZipf(r *Rand, s, v float64, imax uint64) *Zipf {
	if s <= 1.0 || v < 1 || imax == 0 {
		panic("randx: invalid Zipf parameters")
	}
	z := &Zipf{r: r, imax: float64(imax), v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 returns a Zipf-distributed value in [0, imax].
func (z *Zipf) Uint64() uint64 {
	if z == nil {
		panic("randx: Uint64 on nil Zipf")
	}
	for {
		r := z.r.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// AliasTable supports O(1) sampling of an index proportional to a fixed
// weight vector (Walker/Vose alias method). Construction is O(n). The
// workload generator uses one table over the whole file catalog, so every
// search or offer draw costs two random numbers regardless of catalog
// size.
type AliasTable struct {
	prob  []float64
	alias []int32
}

// NewAliasTable builds an alias table for the given non-negative weights.
// It panics on an empty or all-zero weight vector.
func NewAliasTable(weights []float64) *AliasTable {
	n := len(weights)
	if n == 0 {
		panic("randx: empty alias table")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("randx: alias weights must be finite and non-negative")
		}
		sum += w
	}
	if sum == 0 {
		panic("randx: alias weights sum to zero")
	}
	t := &AliasTable{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1 // numerical residue: treat as certain
	}
	return t
}

// Sample returns an index of the construction weights with probability
// proportional to its weight.
func (t *AliasTable) Sample(r *Rand) int {
	i := r.IntN(len(t.prob))
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
