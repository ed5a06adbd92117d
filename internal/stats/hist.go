// Package stats provides the statistical machinery §3 of the paper uses
// on its dataset: integer frequency distributions ("for each value x, the
// number of objects with value x"), maximum-likelihood power-law fits
// with Kolmogorov-Smirnov distances, peak detection for the file-size
// histogram, and terminal log-log plots.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// IntHist counts occurrences of non-negative integer values. It switches
// between a dense slice (small values, the common case for counts) and a
// sparse map for outliers, keeping memory proportional to the support.
// Its sorted points are built once and kept until the next AddN, so the
// many readers of one figure (plot, summary, fit, peaks, KS) sort it once.
// Like the maps it holds, an IntHist is not safe for concurrent use.
type IntHist struct {
	dense  []uint64
	sparse map[uint64]uint64
	n      uint64
	max    uint64
	sum    float64
	pts    []Point // sorted non-zero points; nil until points, reset by AddN
}

// denseLimit bounds the dense slice at 32 KiB. Counts of providers,
// askers and files per client sit far below it; Fig 8's file sizes in KB
// reach past 10⁶ with a support of a few thousand values, and a dense
// slice that followed them would hold megabytes of zeros and make every
// Points walk them.
const denseLimit = 1 << 12

// NewIntHist returns an empty histogram.
func NewIntHist() *IntHist {
	return &IntHist{sparse: make(map[uint64]uint64)}
}

// Add counts one observation of v.
func (h *IntHist) Add(v uint64) { h.AddN(v, 1) }

// AddN counts k observations of v.
func (h *IntHist) AddN(v, k uint64) {
	if v < denseLimit {
		if int(v) >= len(h.dense) {
			grow := make([]uint64, min(v+1+uint64(len(h.dense)/2), denseLimit))
			copy(grow, h.dense)
			h.dense = grow
		}
		h.dense[v] += k
	} else {
		h.sparse[v] += k
	}
	h.pts = nil
	h.n += k
	if v > h.max {
		h.max = v
	}
	h.sum += float64(v) * float64(k)
}

// N returns the number of observations.
func (h *IntHist) N() uint64 { return h.n }

// Max returns the largest observed value.
func (h *IntHist) Max() uint64 { return h.max }

// Mean returns the average observed value.
func (h *IntHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Count returns the number of observations equal to v.
func (h *IntHist) Count(v uint64) uint64 {
	if v < uint64(len(h.dense)) {
		return h.dense[v]
	}
	return h.sparse[v]
}

// Point is one (value, count) pair of a distribution.
type Point struct {
	V uint64
	C uint64
}

// Points returns the non-zero (value, count) pairs sorted by value —
// exactly the series plotted in the paper's Figures 4-8. The slice is the
// caller's own copy.
func (h *IntHist) Points() []Point { return slices.Clone(h.points()) }

// points returns the histogram's sorted points, building them if an AddN
// came since the last call. The slice is shared: callers only read it.
func (h *IntHist) points() []Point {
	if h.pts != nil {
		return h.pts
	}
	out := make([]Point, 0, 256)
	for v, c := range h.dense {
		if c != 0 {
			out = append(out, Point{uint64(v), c})
		}
	}
	// Every sparse value lies above every dense one.
	dense := len(out)
	for v, c := range h.sparse {
		out = append(out, Point{v, c})
	}
	slices.SortFunc(out[dense:], func(a, b Point) int { return cmp.Compare(a.V, b.V) })
	h.pts = out
	return out
}

// Quantile returns the smallest value v such that at least q (0..1) of
// the observations are <= v.
func (h *IntHist) Quantile(q float64) uint64 { return h.quantile(h.points(), q) }

// quantile is Quantile over pts, the histogram's Points; 0 when empty.
func (h *IntHist) quantile(pts []Point, q float64) uint64 {
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var acc uint64
	for _, p := range pts {
		acc += p.C
		if acc >= target {
			return p.V
		}
	}
	return h.max
}

// Summary is a compact description of a distribution.
type Summary struct {
	N      uint64
	Mean   float64
	Median uint64
	P90    uint64
	P99    uint64
	Max    uint64
}

// Summarize computes the summary, its three quantiles from one Points.
func (h *IntHist) Summarize() Summary {
	pts := h.points()
	return Summary{
		N:      h.n,
		Mean:   h.Mean(),
		Median: h.quantile(pts, 0.5),
		P90:    h.quantile(pts, 0.9),
		P99:    h.quantile(pts, 0.99),
		Max:    h.max,
	}
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f median=%d p90=%d p99=%d max=%d",
		s.N, s.Mean, s.Median, s.P90, s.P99, s.Max)
}
