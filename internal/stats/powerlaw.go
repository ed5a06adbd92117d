package stats

import (
	"fmt"
	"math"
)

// PowerLawFit is the result of fitting P(x) ∝ x^-Alpha for x >= XMin.
type PowerLawFit struct {
	// Alpha is the MLE exponent (density exponent, not CCDF).
	Alpha float64
	// XMin is the fitted lower cutoff.
	XMin uint64
	// KS is the Kolmogorov-Smirnov distance between the fitted CCDF and
	// the empirical tail; smaller is better.
	KS float64
	// NTail is the number of observations >= XMin.
	NTail uint64
}

// String renders the fit like the paper would quote it.
func (f PowerLawFit) String() string {
	return fmt.Sprintf("alpha=%.2f xmin=%d ks=%.3f ntail=%d", f.Alpha, f.XMin, f.KS, f.NTail)
}

// FitPowerLaw estimates the exponent by discrete maximum likelihood
// (the Clauset-Shalizi-Newman approximation alpha = 1 + n/Σ ln(x/(xmin-½)))
// scanning xmin candidates and keeping the smallest KS distance. It
// returns an error when fewer than 10 tail points remain.
func FitPowerLaw(h *IntHist) (PowerLawFit, error) {
	pts := h.points()
	// Candidate xmins: distinct values up to the 90th percentile, capped.
	var candidates []uint64
	p90 := h.quantile(pts, 0.9)
	for _, p := range pts {
		if p.V >= 1 && p.V <= p90 {
			candidates = append(candidates, p.V)
		}
		if len(candidates) >= 50 {
			break
		}
	}
	if len(candidates) == 0 {
		return PowerLawFit{}, fmt.Errorf("stats: no xmin candidates")
	}
	best := PowerLawFit{KS: math.Inf(1)}
	for _, xmin := range candidates {
		fit, ok := fitAt(pts, xmin)
		if ok && fit.KS < best.KS {
			best = fit
		}
	}
	if math.IsInf(best.KS, 1) {
		return PowerLawFit{}, fmt.Errorf("stats: no viable power-law fit")
	}
	return best, nil
}

func fitAt(pts []Point, xmin uint64) (PowerLawFit, bool) {
	var n uint64
	var logSum float64
	shift := float64(xmin) - 0.5
	for _, p := range pts {
		if p.V < xmin {
			continue
		}
		n += p.C
		logSum += float64(p.C) * math.Log(float64(p.V)/shift)
	}
	if n < 10 || logSum <= 0 {
		return PowerLawFit{}, false
	}
	alpha := 1 + float64(n)/logSum

	// KS distance between the empirical tail CCDF and the fitted one.
	// The model uses the same half-shift as the estimator (a discrete
	// value v covers the continuous interval [v-½, v+½)), so
	// P(X > v | X >= xmin) = ((v+½)/(xmin-½))^(1-alpha).
	var seen uint64
	ks := 0.0
	for _, p := range pts {
		if p.V < xmin {
			continue
		}
		seen += p.C
		emp := 1 - float64(seen)/float64(n) // P(X > v)
		model := math.Pow((float64(p.V)+0.5)/shift, 1-alpha)
		if d := math.Abs(emp - model); d > ks {
			ks = d
		}
	}
	return PowerLawFit{Alpha: alpha, XMin: xmin, KS: ks, NTail: n}, true
}

// Peak is a local maximum in a distribution that towers over its
// neighbourhood — the CD-size spikes of Fig 8.
type Peak struct {
	V          uint64
	C          uint64
	Prominence float64 // count / median count in the window around it
}

// FindPeaks locates values whose count exceeds prominence × the median
// count within a ±windowFactor multiplicative neighbourhood, requiring at
// least minCount observations. Peaks are returned by descending count.
func FindPeaks(h *IntHist, windowFactor, prominence float64, minCount uint64) []Peak {
	pts := h.points()
	var peaks []Peak
	var window []uint64 // one point's neighbours' counts, reused
	for i, p := range pts {
		if p.C < minCount || p.V == 0 {
			continue
		}
		lo := uint64(float64(p.V) / windowFactor)
		hi := uint64(float64(p.V) * windowFactor)
		window = window[:0]
		localMax := true
		for j := i - 1; j >= 0 && pts[j].V >= lo; j-- {
			window = append(window, pts[j].C)
			if pts[j].C > p.C {
				localMax = false
			}
		}
		for j := i + 1; j < len(pts) && pts[j].V <= hi; j++ {
			window = append(window, pts[j].C)
			if pts[j].C > p.C {
				localMax = false
			}
		}
		if !localMax || len(window) < 3 {
			continue
		}
		med := medianU64(window)
		if med == 0 {
			med = 1
		}
		prom := float64(p.C) / float64(med)
		if prom >= prominence {
			peaks = append(peaks, Peak{V: p.V, C: p.C, Prominence: prom})
		}
	}
	// Sort by count descending (insertion sort; peak lists are short).
	for i := 1; i < len(peaks); i++ {
		for j := i; j > 0 && peaks[j].C > peaks[j-1].C; j-- {
			peaks[j], peaks[j-1] = peaks[j-1], peaks[j]
		}
	}
	return peaks
}

// medianU64 returns the upper median of s, sorting s in place.
func medianU64(s []uint64) uint64 {
	if len(s) == 0 {
		return 0
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
