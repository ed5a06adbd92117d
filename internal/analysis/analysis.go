// Package analysis reproduces §3 of the paper: it consumes the
// anonymised dataset (streaming, one record at a time) and regenerates
// every figure of the evaluation:
//
//	Fig 2 — ethernet losses per second + cumulative (from capture stats)
//	Fig 3 — fileID anonymisation bucket sizes (from pipeline internals)
//	Fig 4 — #clients providing each file
//	Fig 5 — #clients asking for each file
//	Fig 6 — #files provided by each client
//	Fig 7 — #files asked for by each client
//	Fig 8 — file size distribution
//
// The Collector implements core.RecordSink, so figures can be computed
// online during a capture or offline from a stored dataset.
package analysis

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"edtrace/internal/pcap"
	"edtrace/internal/stats"
	"edtrace/internal/xmlenc"
)

// Collector accumulates the paper's per-figure statistics from records.
//
// Every distinct count comes from one mechanism, a pairSet of packed
// uint64 pairs deduplicated as it doubles: (file, client) pairs of
// OfferFiles and of GetSources, and (server, client) pairs of a merged
// dataset's provenance tags. Re-announcements at every session are
// frequent, so a set holds its distinct pairs, delta coded at 1–3 bytes
// each on the figures' captures, and a tail of new observations no longer
// than its run, never every observation. Finalize merges each tail,
// releases its buffer, and reads the figures off the coded runs as a
// stream: per file the groups of a high half, per client the counts of the
// radix-sorted low halves.
//
// Fig 8's sizes, a file's first size winning, are a sizeTable: a table
// indexed by the dense anonymised file ID, about 8 bytes a file, with a
// map for IDs too far past the files sized so far to grow it over.
type Collector struct {
	provide pairSet   // fileID<<32 | client, from OfferFiles
	ask     pairSet   // fileID<<32 | client, from GetSources
	sizes   sizeTable // fileID → first SizeKB, from OfferFiles and SearchRes
	records uint64
	// servers holds one tally per srv tag in order of first appearance;
	// serverIdx maps a tag to its index, the high half of serverClients.
	servers       []ServerTally
	serverIdx     map[string]uint32
	serverClients pairSet // server index<<32 | client
}

// ServerTally is one server's share of a merged multi-server dataset,
// grouped by the records' provenance tags.
type ServerTally struct {
	Server  string
	Records uint64
	Queries uint64
	Answers uint64
	// Clients counts distinct clients seen in this server's dialogs.
	Clients int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{serverIdx: make(map[string]uint32)}
}

// Write implements core.RecordSink / dataset.ForEach callbacks.
func (c *Collector) Write(r *xmlenc.Record) error {
	c.records++
	if r.Server != "" {
		i, ok := c.serverIdx[r.Server]
		if !ok {
			i = uint32(len(c.servers))
			c.serverIdx[r.Server] = i
			c.servers = append(c.servers, ServerTally{Server: r.Server})
		}
		st := &c.servers[i]
		st.Records++
		if r.Dir == xmlenc.DirQuery {
			st.Queries++
		} else {
			st.Answers++
		}
		c.serverClients.add(uint64(i)<<32 | uint64(r.Client))
	}
	switch r.Op {
	case "OfferFiles":
		for i := range r.Files {
			f := &r.Files[i]
			c.provide.add(uint64(f.ID)<<32 | uint64(r.Client))
			c.sizes.add(f.ID, f.SizeKB)
		}
	case "SearchRes":
		// Search answers also reveal file sizes (the paper's Fig 8 uses
		// "the answers of the server to some queries").
		for i := range r.Files {
			c.sizes.add(r.Files[i].ID, r.Files[i].SizeKB)
		}
	case "GetSources":
		for _, id := range r.FileRefs {
			c.ask.add(uint64(id)<<32 | uint64(r.Client))
		}
	}
	return nil
}

// Records reports how many records were consumed.
func (c *Collector) Records() uint64 { return c.records }

// Figures holds every regenerated distribution.
type Figures struct {
	// Fig4: x = #providers of a file, y = #files.
	Fig4 *stats.IntHist
	// Fig5: x = #askers of a file, y = #files.
	Fig5 *stats.IntHist
	// Fig6: x = #files provided by a client, y = #clients.
	Fig6 *stats.IntHist
	// Fig7: x = #files asked by a client, y = #clients.
	Fig7 *stats.IntHist
	// Fig8: x = file size in KB, y = #files of that size.
	Fig8 *stats.IntHist

	// Power-law fits for Fig 4/5 (the paper: "reasonably well fitted by
	// a power-law") and for Fig 6/7 where the paper argues the opposite.
	Fit4, Fit5, Fit6, Fit7 stats.PowerLawFit

	// ProvideAskCorr is the Pearson correlation between the number of
	// files a client provides and the number it asks for, over clients
	// doing both — the §3.2 follow-up analysis the paper proposes
	// ("observing the correlations between the number of files provided
	// and asked for").
	ProvideAskCorr float64
	// BothActive counts clients that both provide and ask.
	BothActive int

	// PerServer groups a merged multi-server dataset by its provenance
	// tags, sorted by server name; empty for single-server datasets.
	PerServer []ServerTally
}

// Finalize merges each pair set's tail into its run, trims the sizes'
// table to its last sized file and histograms everything. The runs and
// the sizes stay the collector's, so writing more after a Finalize and
// finalizing again counts every record written; the tails' buffers are
// released, and a later write allocates a new one.
func (c *Collector) Finalize() *Figures {
	f := &Figures{
		Fig4: stats.NewIntHist(),
		Fig5: stats.NewIntHist(),
		Fig6: stats.NewIntHist(),
		Fig7: stats.NewIntHist(),
		Fig8: stats.NewIntHist(),
	}
	// Per file, the distinct clients are the groups of the pairs' high
	// half; per client, the distinct files are the counts of their low half.
	c.provide.finish()
	c.ask.finish()
	c.serverClients.finish()
	c.provide.groups(func(_ uint32, n int) { f.Fig4.Add(uint64(n)) })
	c.ask.groups(func(_ uint32, n int) { f.Fig5.Add(uint64(n)) })
	provideByClient, askByClient := c.provide.lowCounts(), c.ask.lowCounts()
	for _, kc := range provideByClient {
		f.Fig6.Add(uint64(kc.n))
	}
	for _, kc := range askByClient {
		f.Fig7.Add(uint64(kc.n))
	}
	f.ProvideAskCorr, f.BothActive = correlate(provideByClient, askByClient)
	c.sizes.finish()
	c.sizes.fill(f.Fig8)
	if fit, err := stats.FitPowerLaw(f.Fig4); err == nil {
		f.Fit4 = fit
	}
	if fit, err := stats.FitPowerLaw(f.Fig5); err == nil {
		f.Fit5 = fit
	}
	if fit, err := stats.FitPowerLaw(f.Fig6); err == nil {
		f.Fit6 = fit
	}
	if fit, err := stats.FitPowerLaw(f.Fig7); err == nil {
		f.Fit7 = fit
	}
	f.PerServer = slices.Clone(c.servers)
	c.serverClients.groups(func(server uint32, n int) { f.PerServer[server].Clients = n })
	slices.SortFunc(f.PerServer, func(a, b ServerTally) int { return strings.Compare(a.Server, b.Server) })
	return f
}

// correlate computes the Pearson correlation between provided and asked
// counts over clients present in both lists, joining the two in their
// client order.
func correlate(provide, ask []keyCount) (r float64, n int) {
	var sx, sy, sxx, syy, sxy float64
	for i, j := 0, 0; i < len(provide) && j < len(ask); {
		switch p, a := provide[i], ask[j]; {
		case p.key < a.key:
			i++
		case p.key > a.key:
			j++
		default:
			x, y := float64(p.n), float64(a.n)
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
			n++
			i++
			j++
		}
	}
	if n < 2 {
		return 0, n
	}
	fn := float64(n)
	cov := sxy - sx*sy/fn
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx <= 0 || vy <= 0 {
		return 0, n
	}
	return cov / math.Sqrt(vx*vy), n
}

// Fig2 is the capture-loss series of the paper's Figure 2.
type Fig2 struct {
	// PerSecond mirrors the kernel buffer accounting.
	PerSecond []pcap.SecondStats
	// Cumulative losses at each second.
	Cumulative []uint64
	TotalLost  uint64
	TotalSeen  uint64
}

// NewFig2 derives the series from capture stats.
func NewFig2(per []pcap.SecondStats) *Fig2 {
	f := &Fig2{PerSecond: per, Cumulative: make([]uint64, len(per))}
	var acc uint64
	for i, s := range per {
		acc += s.Dropped
		f.Cumulative[i] = acc
		f.TotalLost += s.Dropped
		f.TotalSeen += s.Captured
	}
	return f
}

// LossRate returns overall lost/(lost+captured).
func (f *Fig2) LossRate() float64 {
	tot := f.TotalLost + f.TotalSeen
	if tot == 0 {
		return 0
	}
	return float64(f.TotalLost) / float64(tot)
}

// BurstSeconds counts seconds with at least one loss — Figure 2 shows
// losses concentrated in spikes, not spread uniformly.
func (f *Fig2) BurstSeconds() int {
	n := 0
	for _, s := range f.PerSecond {
		if s.Dropped > 0 {
			n++
		}
	}
	return n
}

// Fig3 summarises the fileID anonymisation arrays.
type Fig3 struct {
	// SizeHist: x = bucket size, y = number of buckets with that size.
	SizeHist *stats.IntHist
	MaxSize  int
	MaxIdx   int
	Mean     float64
	// Pathological buckets: indexes whose size exceeds 8x the mean.
	Outliers []int
}

// NewFig3 analyses bucket sizes from the anonymiser.
func NewFig3(sizes []int) *Fig3 {
	f := &Fig3{SizeHist: stats.NewIntHist()}
	total := 0
	for i, s := range sizes {
		f.SizeHist.Add(uint64(s))
		total += s
		if s > f.MaxSize {
			f.MaxSize, f.MaxIdx = s, i
		}
	}
	if len(sizes) > 0 {
		f.Mean = float64(total) / float64(len(sizes))
	}
	for i, s := range sizes {
		if f.Mean > 0 && float64(s) > 8*f.Mean && s > 16 {
			f.Outliers = append(f.Outliers, i)
		}
	}
	return f
}

// CDPeaksKB are the canonical file-size peaks of Figure 8, in KB.
var CDPeaksKB = []uint64{
	175 * 1024, 233 * 1024, 350 * 1024, 700 * 1024, 1024 * 1024, 1400 * 1024,
}

// Fig8Peaks detects size peaks and matches them against the canonical
// CD-related sizes; it returns the detected peaks and how many canonical
// peaks were found (tolerance 2 %).
func Fig8Peaks(h *stats.IntHist) (peaks []stats.Peak, matched int) {
	peaks = stats.FindPeaks(h, 1.25, 4, 10)
	for _, want := range CDPeaksKB {
		for _, p := range peaks {
			lo := float64(want) * 0.98
			hi := float64(want) * 1.02
			if float64(p.V) >= lo && float64(p.V) <= hi {
				matched++
				break
			}
		}
	}
	return peaks, matched
}

// Render produces the full text report with ASCII plots — the terminal
// analogue of the paper's figure pages.
func (f *Figures) Render() string {
	var b strings.Builder
	plot := func(title, xlab string, h *stats.IntHist, fit stats.PowerLawFit) {
		p := stats.NewLogLog(title)
		p.XLabel = xlab
		b.WriteString(p.Render(h.Points()))
		fmt.Fprintf(&b, "  summary: %s\n", h.Summarize())
		if fit.NTail > 0 {
			fmt.Fprintf(&b, "  power-law fit: %s\n", fit)
		}
		b.WriteString("\n")
	}
	plot("Figure 4: clients providing each file", "providers per file", f.Fig4, f.Fit4)
	plot("Figure 5: clients asking for each file", "askers per file", f.Fig5, f.Fit5)
	plot("Figure 6: files provided by each client", "files per provider", f.Fig6, f.Fit6)
	plot("Figure 7: files asked for by each client", "files per asker", f.Fig7, f.Fit7)
	plot("Figure 8: file size distribution (KB)", "size (KB)", f.Fig8, stats.PowerLawFit{})
	fmt.Fprintf(&b, "  provide/ask correlation: r=%.3f over %d clients active on both sides\n\n",
		f.ProvideAskCorr, f.BothActive)
	peaks, matched := Fig8Peaks(f.Fig8)
	fmt.Fprintf(&b, "  size peaks detected: %d (canonical CD sizes matched: %d/%d)\n",
		len(peaks), matched, len(CDPeaksKB))
	for i, p := range peaks {
		if i >= 8 {
			break
		}
		fmt.Fprintf(&b, "    peak at %d KB (%.0f MB): %d files, prominence %.1fx\n",
			p.V, float64(p.V)/1024, p.C, p.Prominence)
	}
	if len(f.PerServer) > 0 {
		b.WriteString("\n  per-server breakdown (merged mesh capture):\n")
		for _, st := range f.PerServer {
			fmt.Fprintf(&b, "    %-16s %8d records (%d queries, %d answers), %d distinct clients\n",
				st.Server, st.Records, st.Queries, st.Answers, st.Clients)
		}
	}
	return b.String()
}

// WriteCSV renders one histogram as "value,count" lines for external
// plotting tools (the paper's figures are gnuplot outputs of exactly
// these series).
func WriteCSV(h *stats.IntHist, w *strings.Builder) {
	w.WriteString("value,count\n")
	for _, p := range h.Points() {
		fmt.Fprintf(w, "%d,%d\n", p.V, p.C)
	}
}
