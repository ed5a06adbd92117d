package stats

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"edtrace/internal/randx"
)

func TestIntHistBasics(t *testing.T) {
	h := NewIntHist()
	for _, v := range []uint64{1, 1, 2, 5, 5, 5, 1000000000} {
		h.Add(v)
	}
	if h.N() != 7 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Max() != 1000000000 {
		t.Fatalf("Max = %d", h.Max())
	}
	if h.Count(5) != 3 || h.Count(1) != 2 || h.Count(999) != 0 {
		t.Fatal("Count wrong")
	}
	if h.Count(1000000000) != 1 {
		t.Fatal("sparse Count wrong")
	}
	wantMean := float64(1+1+2+5+5+5+1000000000) / 7
	if math.Abs(h.Mean()-wantMean) > 1e-6 {
		t.Fatalf("Mean = %f", h.Mean())
	}
	pts := h.Points()
	if len(pts) != 4 {
		t.Fatalf("Points = %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].V <= pts[i-1].V {
			t.Fatal("Points not sorted")
		}
	}
}

// TestIntHistCostsItsSupport: Fig 8's sizes in KB run past 10⁶ with a
// support of a few thousand values; the histogram that holds them
// allocates for those values, not for every integer below the largest.
func TestIntHistCostsItsSupport(t *testing.T) {
	r := randx.New(8, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewIntHist()
	for i := 0; i < 100_000; i++ {
		h.Add(uint64(r.IntN(2000)) * 750) // 2000 values in [0, 1.5·10⁶)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a histogram of %d distinct values allocated %d bytes", len(h.Points()), grew)
	}
}

// TestIntHistMatchesMap: on both sides of the dense part's limit, the
// histogram says what a plain map of counts says.
func TestIntHistMatchesMap(t *testing.T) {
	r := randx.New(9, 9)
	h, ref := NewIntHist(), map[uint64]uint64{}
	var n uint64
	for i := 0; i < 20_000; i++ {
		var v uint64
		switch i % 4 {
		case 0:
			v = uint64(r.IntN(100))
		case 1:
			v = denseLimit - 8 + uint64(r.IntN(16))
		case 2:
			v = uint64(r.IntN(1 << 20))
		default:
			v = uint64(r.IntN(1_500_000))
		}
		k := uint64(1 + r.IntN(3))
		h.AddN(v, k)
		ref[v] += k
		n += k
	}
	var want []Point
	for v, c := range ref {
		want = append(want, Point{v, c})
	}
	slices.SortFunc(want, func(a, b Point) int { return cmp.Compare(a.V, b.V) })
	if got := h.Points(); !slices.Equal(got, want) {
		t.Fatalf("Points: %d points, the map has %d", len(got), len(want))
	}
	quantile := func(q float64) uint64 {
		target, acc := uint64(math.Ceil(q*float64(n))), uint64(0)
		if target == 0 {
			target = 1
		}
		for _, p := range want {
			if acc += p.C; acc >= target {
				return p.V
			}
		}
		return want[len(want)-1].V
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := h.Quantile(q), quantile(q); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
	s := h.Summarize()
	if s.N != n || s.Median != quantile(0.5) || s.P90 != quantile(0.9) || s.P99 != quantile(0.99) || s.Max != want[len(want)-1].V {
		t.Errorf("Summarize = %+v", s)
	}
	for _, v := range []uint64{0, denseLimit - 1, denseLimit, denseLimit + 1, 1 << 20, 1_499_999} {
		if h.Count(v) != ref[v] {
			t.Errorf("Count(%d) = %d, want %d", v, h.Count(v), ref[v])
		}
	}
}

// TestPointsIsACopyAndFollowsAddN: the histogram sorts its points once and
// keeps them, so what a caller does to the slice Points returns must not
// reach the next call, and an AddN after a Points must be seen by it.
func TestPointsIsACopyAndFollowsAddN(t *testing.T) {
	h := NewIntHist()
	for _, v := range []uint64{3, 3, 7, 1 << 20, 5 << 20} {
		h.Add(v)
	}
	want := []Point{{3, 2}, {7, 1}, {1 << 20, 1}, {5 << 20, 1}}
	got := h.Points()
	if !slices.Equal(got, want) {
		t.Fatalf("Points = %v, want %v", got, want)
	}
	got[0] = Point{99, 99}
	slices.Reverse(got)
	if got := h.Points(); !slices.Equal(got, want) {
		t.Fatalf("Points after the caller edited its slice = %v, want %v", got, want)
	}
	if q := h.Quantile(0.5); q != 7 {
		t.Fatalf("median = %d, want 7", q)
	}
	h.AddN(3, 4)
	h.AddN(2<<20, 1)
	want = []Point{{3, 6}, {7, 1}, {1 << 20, 1}, {2 << 20, 1}, {5 << 20, 1}}
	if got := h.Points(); !slices.Equal(got, want) {
		t.Fatalf("Points after AddN = %v, want %v", got, want)
	}
	if s := h.Summarize(); s.N != 10 || s.Median != 3 || s.P90 != 2<<20 {
		t.Fatalf("Summarize after AddN = %+v", s)
	}
}

func TestIntHistAddN(t *testing.T) {
	h := NewIntHist()
	h.AddN(3, 100)
	if h.N() != 100 || h.Count(3) != 100 {
		t.Fatal("AddN broken")
	}
}

func TestQuantiles(t *testing.T) {
	h := NewIntHist()
	for v := uint64(1); v <= 100; v++ {
		h.Add(v)
	}
	if q := h.Quantile(0.5); q != 50 {
		t.Fatalf("median = %d", q)
	}
	if q := h.Quantile(0.99); q != 99 {
		t.Fatalf("p99 = %d", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Fatalf("p100 = %d", q)
	}
	empty := NewIntHist()
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
}

func TestQuickHistInvariants(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewIntHist()
		var sum uint64
		for _, v := range vals {
			h.Add(uint64(v))
			sum++
		}
		if h.N() != sum {
			return false
		}
		var total uint64
		for _, p := range h.Points() {
			total += p.C
		}
		return total == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitPowerLawRecoversExponent(t *testing.T) {
	// Sample from a discrete power law via continuous Pareto rounding.
	r := randx.New(7, 7)
	h := NewIntHist()
	const alpha = 2.5 // density exponent; Pareto tail index = alpha-1
	for i := 0; i < 200000; i++ {
		// Round (not floor): the half-shift estimator models discrete
		// value v as covering [v-½, v+½).
		v := uint64(r.Pareto(1, alpha-1) + 0.5)
		h.Add(v)
	}
	fit, err := FitPowerLaw(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-alpha) > 0.15 {
		t.Fatalf("fitted alpha = %.3f, want ~%.1f (fit: %s)", fit.Alpha, alpha, fit)
	}
	if fit.KS > 0.05 {
		t.Fatalf("KS = %.4f too large for a true power law", fit.KS)
	}
}

func TestFitPowerLawRejectsTinySamples(t *testing.T) {
	h := NewIntHist()
	h.Add(1)
	h.Add(2)
	if _, err := FitPowerLaw(h); err == nil {
		t.Fatal("fit accepted 2 points")
	}
}

func TestLogNormalIsNotAPowerLaw(t *testing.T) {
	// Sanity: the fit should be clearly worse (bigger KS) for a
	// log-normal body than for a true power law — this is how the
	// analysis distinguishes Fig 4/5 (power-law) from Fig 6/7 (not).
	r := randx.New(4, 4)
	pl, ln := NewIntHist(), NewIntHist()
	for i := 0; i < 100000; i++ {
		pl.Add(uint64(r.Pareto(1, 1.5) + 0.5))
		ln.Add(uint64(r.LogNormal(3, 0.4) + 0.5))
	}
	fitPL, err := FitPowerLaw(pl)
	if err != nil {
		t.Fatal(err)
	}
	fitLN, err := FitPowerLaw(ln)
	if err != nil {
		t.Fatal(err)
	}
	if fitLN.KS <= fitPL.KS {
		t.Fatalf("log-normal KS %.4f <= power-law KS %.4f", fitLN.KS, fitPL.KS)
	}
}

func TestFindPeaks(t *testing.T) {
	h := NewIntHist()
	// Smooth background 1..1000 with spikes at 700 and 350.
	r := randx.New(5, 5)
	for i := 0; i < 20000; i++ {
		h.Add(uint64(1 + r.IntN(1000)))
	}
	h.AddN(700, 5000)
	h.AddN(350, 3000)
	peaks := FindPeaks(h, 1.3, 5, 100)
	if len(peaks) < 2 {
		t.Fatalf("found %d peaks, want >=2", len(peaks))
	}
	if peaks[0].V != 700 || peaks[1].V != 350 {
		t.Fatalf("peaks = %+v", peaks[:2])
	}
	if peaks[0].Prominence < 5 {
		t.Fatalf("prominence = %f", peaks[0].Prominence)
	}
}

func TestFindPeaksIgnoresSmooth(t *testing.T) {
	h := NewIntHist()
	for v := uint64(100); v < 200; v++ {
		h.AddN(v, 50)
	}
	if peaks := FindPeaks(h, 1.3, 3, 10); len(peaks) != 0 {
		t.Fatalf("smooth distribution produced peaks: %+v", peaks)
	}
}

func TestSummary(t *testing.T) {
	h := NewIntHist()
	for v := uint64(1); v <= 10; v++ {
		h.Add(v)
	}
	s := h.Summarize()
	if s.N != 10 || s.Median != 5 || s.Max != 10 {
		t.Fatalf("summary: %+v", s)
	}
	if !strings.Contains(s.String(), "median=5") {
		t.Fatalf("summary string: %s", s)
	}
}

func TestAsciiPlotRenders(t *testing.T) {
	h := NewIntHist()
	r := randx.New(6, 6)
	for i := 0; i < 10000; i++ {
		h.Add(uint64(r.Pareto(1, 1.2)))
	}
	p := NewLogLog("figure 4")
	p.XLabel = "providers per file"
	out := p.Render(h.Points())
	if !strings.Contains(out, "figure 4") || !strings.Contains(out, "*") {
		t.Fatalf("plot:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < plotHeight {
		t.Fatalf("plot too short: %d lines", len(lines))
	}
	if p.Render(nil) == "" {
		t.Fatal("empty render must still say something")
	}
}
