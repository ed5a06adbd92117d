package analysis

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"edtrace/internal/stats"
	"edtrace/internal/xmlenc"
)

// WindowSet re-analyses one capture under nested measurement windows —
// the Benamara & Magnien question ("Removing bias due to finite
// measurement of dynamic systems", PAPERS.md): measured distributions
// of a dynamic system depend on how long you watch it. Each record is
// routed into the full window and every window [0, total/2^k) that
// contains its timestamp, so a single pass over the dataset yields the
// same figures computed as if the capture had been stopped at each
// nested length, and the per-figure shifts between windows quantify the
// finite-measurement bias directly.
type WindowSet struct {
	total   float64 // capture span in seconds
	windows []float64
	cols    []*Collector
}

// NewWindowSet builds n nested windows over a capture spanning total
// seconds: total, total/2, ..., total/2^(n-1). n must be in [2, 8] and
// total positive.
func NewWindowSet(total float64, n int) (*WindowSet, error) {
	if total <= 0 {
		return nil, fmt.Errorf("analysis: window total = %v", total)
	}
	if n < 2 || n > 8 {
		return nil, fmt.Errorf("analysis: %d windows, want 2 to 8", n)
	}
	w := &WindowSet{total: total}
	span := total
	for i := 0; i < n; i++ {
		w.windows = append(w.windows, span)
		w.cols = append(w.cols, NewCollector())
		span /= 2
	}
	return w, nil
}

// Write routes one record into every window containing its timestamp.
// The full window takes every record: its span is the capture's, and a
// capture's last t plus a margin may round back to that t. It implements
// core.RecordSink / dataset.ForEach callbacks, so the whole nested
// analysis is one dataset pass.
func (w *WindowSet) Write(r *xmlenc.Record) error {
	if err := w.cols[0].Write(r); err != nil {
		return err
	}
	for i := 1; i < len(w.windows) && r.T < w.windows[i]; i++ {
		if err := w.cols[i].Write(r); err != nil {
			return err
		}
	}
	return nil
}

// WindowFigures is one window's complete figure set.
type WindowFigures struct {
	// Span is the window length in seconds (from capture start).
	Span float64
	// Records consumed inside the window.
	Records uint64
	// Figures are the full §3 distributions computed on this window.
	Figures *Figures
}

// BiasReport is the nested-window comparison: Windows[0] is the full
// capture, each subsequent entry half the previous length.
type BiasReport struct {
	Windows []WindowFigures
}

// Finalize computes every window's figures.
func (w *WindowSet) Finalize() *BiasReport {
	rep := &BiasReport{}
	for i := range w.cols {
		rep.Windows = append(rep.Windows, WindowFigures{
			Span:    w.windows[i],
			Records: w.cols[i].Records(),
			Figures: w.cols[i].Finalize(),
		})
	}
	return rep
}

// ksDistance is the Kolmogorov-Smirnov distance between two observed
// integer distributions: the maximum gap between their empirical CDFs.
// 0 means identical shapes; 1 means disjoint support.
func ksDistance(a, b *stats.IntHist) float64 {
	if a.N() == 0 || b.N() == 0 {
		return 1
	}
	pa, pb := a.Points(), b.Points()
	na, nb := float64(a.N()), float64(b.N())
	var ca, cb uint64
	var i, j int
	maxGap := 0.0
	for i < len(pa) || j < len(pb) {
		var v uint64
		switch {
		case j >= len(pb) || (i < len(pa) && pa[i].V <= pb[j].V):
			v = pa[i].V
		default:
			v = pb[j].V
		}
		for i < len(pa) && pa[i].V == v {
			ca += pa[i].C
			i++
		}
		for j < len(pb) && pb[j].V == v {
			cb += pb[j].C
			j++
		}
		gap := math.Abs(float64(ca)/na - float64(cb)/nb)
		if gap > maxGap {
			maxGap = gap
		}
	}
	return maxGap
}

// maxDurationSpan is the longest span fmtSpan renders as a time.Duration:
// half a second short of its ~292 years, so that rounding to the second
// stays in range.
const maxDurationSpan = float64(math.MaxInt64 - time.Second/2)

// fmtSpan renders a window length in human units: as a time.Duration
// rounded to the second, and past its range in whole hours, to 15 digits.
func fmtSpan(seconds float64) string {
	if ns := seconds * float64(time.Second); ns < maxDurationSpan {
		return time.Duration(ns).Round(time.Second).String()
	}
	return strconv.FormatFloat(math.Round(seconds/3600), 'g', 15, 64) + "h"
}

// Render produces the per-figure shift tables: for each of the paper's
// distributions, how its summary statistics and shape (KS distance vs
// the full window) move as the measurement window shrinks.
func (r *BiasReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "finite-measurement bias: %d nested windows over %s of capture\n",
		len(r.Windows), fmtSpan(r.Windows[0].Span))
	fmt.Fprintf(&b, "  (Benamara & Magnien: how each figure shifts when the capture is cut short)\n\n")

	figures := []struct {
		name string
		pick func(*Figures) *stats.IntHist
	}{
		{"Fig 4: providers per file", func(f *Figures) *stats.IntHist { return f.Fig4 }},
		{"Fig 5: askers per file", func(f *Figures) *stats.IntHist { return f.Fig5 }},
		{"Fig 6: files per provider", func(f *Figures) *stats.IntHist { return f.Fig6 }},
		{"Fig 7: files per asker", func(f *Figures) *stats.IntHist { return f.Fig7 }},
		{"Fig 8: file sizes (KB)", func(f *Figures) *stats.IntHist { return f.Fig8 }},
	}
	full := r.Windows[0]
	for _, fig := range figures {
		fmt.Fprintf(&b, "%s\n", fig.name)
		fmt.Fprintf(&b, "  %-10s %10s %12s %10s %8s %8s %10s %8s\n",
			"window", "records", "n", "mean", "median", "p90", "max", "KS")
		for wi, win := range r.Windows {
			h := fig.pick(win.Figures)
			s := h.Summarize()
			ks := 0.0
			if wi > 0 {
				ks = ksDistance(fig.pick(full.Figures), h)
			}
			fmt.Fprintf(&b, "  %-10s %10d %12d %10.2f %8d %8d %10d %8.4f\n",
				fmtSpan(win.Span), win.Records, s.N, s.Mean, s.Median, s.P90, s.Max, ks)
		}
		b.WriteString("\n")
	}
	return b.String()
}
