package analysis

import (
	"strings"
	"testing"

	"edtrace/internal/pcap"
	"edtrace/internal/stats"
	"edtrace/internal/xmlenc"
)

func offerRec(client uint32, files ...xmlenc.FileInfo) *xmlenc.Record {
	return &xmlenc.Record{Op: "OfferFiles", Dir: xmlenc.DirQuery, Client: client, Files: files}
}

func askRec(client uint32, ids ...uint32) *xmlenc.Record {
	return &xmlenc.Record{Op: "GetSources", Dir: xmlenc.DirQuery, Client: client, FileRefs: ids}
}

func TestCollectorFigures(t *testing.T) {
	c := NewCollector()
	// File 1 provided by clients 10, 11; file 2 by client 10 only.
	c.Write(offerRec(10, xmlenc.FileInfo{ID: 1, SizeKB: 4096}, xmlenc.FileInfo{ID: 2, SizeKB: 700 * 1024}))
	c.Write(offerRec(11, xmlenc.FileInfo{ID: 1, SizeKB: 4096}))
	// Re-announce must not double-count.
	c.Write(offerRec(10, xmlenc.FileInfo{ID: 1, SizeKB: 4096}))
	// Asks: file 1 asked by 20 and 21; file 3 by 20.
	c.Write(askRec(20, 1))
	c.Write(askRec(21, 1))
	c.Write(askRec(20, 3))
	c.Write(askRec(20, 1)) // duplicate ask

	f := c.Finalize()
	// Fig4: one file with 2 providers, one with 1.
	if f.Fig4.Count(2) != 1 || f.Fig4.Count(1) != 1 {
		t.Fatalf("fig4: %+v", f.Fig4.Points())
	}
	// Fig6: client 10 provides 2 files, client 11 provides 1.
	if f.Fig6.Count(2) != 1 || f.Fig6.Count(1) != 1 {
		t.Fatalf("fig6: %+v", f.Fig6.Points())
	}
	// Fig5: file 1 has 2 askers, file 3 has 1.
	if f.Fig5.Count(2) != 1 || f.Fig5.Count(1) != 1 {
		t.Fatalf("fig5: %+v", f.Fig5.Points())
	}
	// Fig7: client 20 asked 2 distinct files, client 21 asked 1.
	if f.Fig7.Count(2) != 1 || f.Fig7.Count(1) != 1 {
		t.Fatalf("fig7: %+v", f.Fig7.Points())
	}
	// Fig8: two distinct files sized 4096, one 716800.
	if f.Fig8.Count(4096) != 1 || f.Fig8.Count(700*1024) != 1 {
		t.Fatalf("fig8: %+v", f.Fig8.Points())
	}
	if c.Records() != 7 {
		t.Fatalf("records = %d", c.Records())
	}
}

func TestCollectorSearchResSizes(t *testing.T) {
	c := NewCollector()
	c.Write(&xmlenc.Record{Op: "SearchRes", Dir: xmlenc.DirAnswer, Client: 1,
		Files: []xmlenc.FileInfo{{ID: 9, SizeKB: 1234}}})
	f := c.Finalize()
	if f.Fig8.Count(1234) != 1 {
		t.Fatal("search answers must feed Fig 8")
	}
}

func TestFig2Series(t *testing.T) {
	per := []pcap.SecondStats{
		{Captured: 100, Dropped: 0},
		{Captured: 80, Dropped: 20},
		{Captured: 100, Dropped: 0},
		{Captured: 50, Dropped: 5},
	}
	f := NewFig2(per)
	if f.TotalLost != 25 || f.TotalSeen != 330 {
		t.Fatalf("totals: %+v", f)
	}
	if f.Cumulative[3] != 25 || f.Cumulative[0] != 0 {
		t.Fatalf("cumulative: %v", f.Cumulative)
	}
	if f.BurstSeconds() != 2 {
		t.Fatalf("burst seconds: %d", f.BurstSeconds())
	}
	rate := f.LossRate()
	if rate < 0.07 || rate > 0.071 {
		t.Fatalf("loss rate: %f", rate)
	}
	empty := NewFig2(nil)
	if empty.LossRate() != 0 {
		t.Fatal("empty loss rate")
	}
}

func TestFig3Outliers(t *testing.T) {
	sizes := make([]int, 1000)
	for i := range sizes {
		sizes[i] = 10
	}
	sizes[0] = 500   // pathological bucket 0
	sizes[256] = 300 // pathological bucket 256
	f := NewFig3(sizes)
	if f.MaxSize != 500 || f.MaxIdx != 0 {
		t.Fatalf("max: %d at %d", f.MaxSize, f.MaxIdx)
	}
	if len(f.Outliers) != 2 || f.Outliers[0] != 0 || f.Outliers[1] != 256 {
		t.Fatalf("outliers: %v", f.Outliers)
	}
	if f.Mean < 10 || f.Mean > 12 {
		t.Fatalf("mean: %f", f.Mean)
	}
}

func TestFig8PeakMatching(t *testing.T) {
	h := stats.NewIntHist()
	// Smooth log-normal-ish background.
	for v := uint64(1000); v < 2_000_000; v += 997 {
		h.AddN(v, 3)
	}
	// Canonical peaks.
	h.AddN(700*1024, 5000)
	h.AddN(350*1024, 3000)
	h.AddN(1024*1024, 2000)
	peaks, matched := Fig8Peaks(h)
	if matched < 3 {
		t.Fatalf("matched %d canonical peaks, want >=3 (peaks: %+v)", matched, peaks)
	}
}

func TestProvideAskCorrelation(t *testing.T) {
	c := NewCollector()
	// Perfectly correlated activity: client i provides i files and asks
	// for i files.
	for i := uint32(1); i <= 20; i++ {
		var files []xmlenc.FileInfo
		var refs []uint32
		for k := uint32(0); k < i; k++ {
			files = append(files, xmlenc.FileInfo{ID: i*100 + k, SizeKB: 1})
			refs = append(refs, i*1000+k)
		}
		c.Write(offerRec(i, files...))
		c.Write(askRec(i, refs...))
	}
	f := c.Finalize()
	if f.BothActive != 20 {
		t.Fatalf("both-active = %d", f.BothActive)
	}
	if f.ProvideAskCorr < 0.999 {
		t.Fatalf("correlation = %f, want ~1", f.ProvideAskCorr)
	}

	// Anti-correlated: providers never ask.
	c2 := NewCollector()
	c2.Write(offerRec(1, xmlenc.FileInfo{ID: 1}))
	c2.Write(askRec(2, 1))
	f2 := c2.Finalize()
	if f2.BothActive != 0 || f2.ProvideAskCorr != 0 {
		t.Fatalf("disjoint populations: %f over %d", f2.ProvideAskCorr, f2.BothActive)
	}
}

func TestRenderProducesReport(t *testing.T) {
	c := NewCollector()
	for i := uint32(0); i < 200; i++ {
		c.Write(offerRec(i, xmlenc.FileInfo{ID: i % 37, SizeKB: uint64(1000 + i)}))
		c.Write(askRec(i, i%53))
	}
	f := c.Finalize()
	out := f.Render()
	for _, want := range []string{"Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8", "summary:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	WriteCSV(f.Fig4, &csv)
	if !strings.HasPrefix(csv.String(), "value,count\n") {
		t.Fatal("bad CSV header")
	}
	if len(strings.Split(csv.String(), "\n")) < 2 {
		t.Fatal("empty CSV")
	}
}

// TestFinalizeIsRepeatable: Finalize dedups the pair lists in place, so
// finalizing twice, or writing more after a Finalize and finalizing
// again, must give the figures of a fresh collector over the same
// records.
func TestFinalizeIsRepeatable(t *testing.T) {
	write := func(c *Collector, from, to uint32) {
		for i := from; i < to; i++ { // duplicates on both sides, out of order
			c.Write(offerRec(i%41, xmlenc.FileInfo{ID: i * 7 % 53, SizeKB: uint64(100 + i%13)}))
			c.Write(askRec(i%29, i*11%61, i*3%61))
		}
	}
	fresh := func(to uint32) string {
		c := NewCollector()
		write(c, 0, to)
		return c.Finalize().Render()
	}

	c := NewCollector()
	write(c, 0, 300)
	if got, want := c.Finalize().Render(), fresh(300); got != want {
		t.Fatalf("first Finalize differs from a fresh collector:\n%s\nwant\n%s", got, want)
	}
	if got, want := c.Finalize().Render(), fresh(300); got != want {
		t.Fatalf("second Finalize differs:\n%s\nwant\n%s", got, want)
	}
	write(c, 300, 500)
	if got, want := c.Finalize().Render(), fresh(500); got != want {
		t.Fatalf("Finalize after more writes differs:\n%s\nwant\n%s", got, want)
	}
}
