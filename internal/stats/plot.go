package stats

import (
	"fmt"
	"math"
	"strings"
)

// AsciiPlot renders points on a log-log scatter for terminal inspection,
// the workbench equivalent of the paper's gnuplot figures.
type AsciiPlot struct {
	// Title is printed above the plot.
	Title string
	// XLabel annotates the x axis.
	XLabel string
}

// The plot area in characters.
const plotWidth, plotHeight = 72, 20

// NewLogLog returns a plot drawn like Figures 4-7.
func NewLogLog(title string) *AsciiPlot {
	return &AsciiPlot{Title: title}
}

// Render draws the (value, count) series.
func (p *AsciiPlot) Render(pts []Point) string {
	if len(pts) == 0 {
		return p.Title + ": (empty)\n"
	}
	w, h := plotWidth, plotHeight
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	logOf := func(v uint64) float64 { return math.Log10(max(float64(v), 1)) }
	for _, pt := range pts {
		x, y := logOf(pt.V), logOf(pt.C)
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for _, pt := range pts {
		cx := int((logOf(pt.V) - minX) / (maxX - minX) * float64(w-1))
		cy := int((logOf(pt.C) - minY) / (maxY - minY) * float64(h-1))
		row := h - 1 - cy
		grid[row][cx] = '*'
	}
	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	axisFmt := func(v float64) string { return fmt.Sprintf("%.3g", math.Pow(10, v)) }
	for i, row := range grid {
		label := strings.Repeat(" ", 10)
		switch i {
		case 0:
			label = fmt.Sprintf("%10s", axisFmt(maxY))
		case h - 1:
			label = fmt.Sprintf("%10s", axisFmt(minY))
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "%10s  %-s%s%s\n", "",
		axisFmt(minX),
		strings.Repeat(" ", w-14),
		axisFmt(maxX))
	if p.XLabel != "" {
		fmt.Fprintf(&b, "%10s  [%s]\n", "", p.XLabel)
	}
	return b.String()
}
