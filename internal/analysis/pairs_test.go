package analysis

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"edtrace/internal/randx"
	"edtrace/internal/stats"
	"edtrace/internal/xmlenc"
)

// refCollector is the map-based collector the pair sets replaced, kept as
// the oracle: every observation appended, sorted and deduplicated at
// Finalize, then counted into a map per file and per client, and a set of
// clients per server.
type refCollector struct {
	providePairs, askPairs []uint64
	sizes                  map[uint32]uint64
	perServer              map[string]*ServerTally
	serverClients          map[string]map[uint32]struct{}
}

func newRefCollector() *refCollector {
	return &refCollector{
		sizes:         make(map[uint32]uint64),
		perServer:     make(map[string]*ServerTally),
		serverClients: make(map[string]map[uint32]struct{}),
	}
}

func (c *refCollector) Write(r *xmlenc.Record) {
	if r.Server != "" {
		st := c.perServer[r.Server]
		if st == nil {
			st = &ServerTally{Server: r.Server}
			c.perServer[r.Server] = st
			c.serverClients[r.Server] = make(map[uint32]struct{})
		}
		st.Records++
		if r.Dir == xmlenc.DirQuery {
			st.Queries++
		} else {
			st.Answers++
		}
		c.serverClients[r.Server][r.Client] = struct{}{}
	}
	switch r.Op {
	case "OfferFiles", "SearchRes":
		for i := range r.Files {
			f := &r.Files[i]
			if r.Op == "OfferFiles" {
				c.providePairs = append(c.providePairs, uint64(f.ID)<<32|uint64(r.Client))
			}
			if _, ok := c.sizes[f.ID]; !ok {
				c.sizes[f.ID] = f.SizeKB
			}
		}
	case "GetSources":
		for _, id := range r.FileRefs {
			c.askPairs = append(c.askPairs, uint64(id)<<32|uint64(r.Client))
		}
	}
}

func (c *refCollector) Finalize() *Figures {
	f := &Figures{
		Fig4: stats.NewIntHist(),
		Fig5: stats.NewIntHist(),
		Fig6: stats.NewIntHist(),
		Fig7: stats.NewIntHist(),
		Fig8: stats.NewIntHist(),
	}
	perFile, provideByClient := refPairCounts(&c.providePairs)
	refFillHist(f.Fig4, perFile)
	refFillHist(f.Fig6, provideByClient)
	perFile, askByClient := refPairCounts(&c.askPairs)
	refFillHist(f.Fig5, perFile)
	refFillHist(f.Fig7, askByClient)
	f.ProvideAskCorr, f.BothActive = refCorrelate(provideByClient, askByClient)
	for _, kb := range c.sizes {
		f.Fig8.Add(kb)
	}
	for _, fit := range []struct {
		h   *stats.IntHist
		out *stats.PowerLawFit
	}{{f.Fig4, &f.Fit4}, {f.Fig5, &f.Fit5}, {f.Fig6, &f.Fit6}, {f.Fig7, &f.Fit7}} {
		if got, err := stats.FitPowerLaw(fit.h); err == nil {
			*fit.out = got
		}
	}
	for name, st := range c.perServer {
		t := *st
		t.Clients = len(c.serverClients[name])
		f.PerServer = append(f.PerServer, t)
	}
	slices.SortFunc(f.PerServer, func(a, b ServerTally) int { return cmp.Compare(a.Server, b.Server) })
	return f
}

func refPairCounts(pairs *[]uint64) (perHigh, perLow map[uint32]uint32) {
	slices.Sort(*pairs)
	*pairs = slices.Compact(*pairs)
	perHigh = make(map[uint32]uint32)
	perLow = make(map[uint32]uint32)
	for _, p := range *pairs {
		perHigh[uint32(p>>32)]++
		perLow[uint32(p)]++
	}
	return perHigh, perLow
}

func refFillHist(h *stats.IntHist, counts map[uint32]uint32) {
	for _, n := range counts {
		h.Add(uint64(n))
	}
}

func refCorrelate(provide, ask map[uint32]uint32) (r float64, n int) {
	var sx, sy, sxx, syy, sxy float64
	for client, p := range provide {
		a, ok := ask[client]
		if !ok {
			continue
		}
		x, y := float64(p), float64(a)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
		n++
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

// fuzzIDs are the IDs a fuzz byte starts from: both ends of uint32, the
// dense low range real datasets use, and values whose 8-bit digits differ
// from theirs everywhere.
var fuzzIDs = [...]uint32{0, 1, 2, 3, 7, 255, 256, 1<<16 - 1, 1 << 16, 1<<24 + 5, 1 << 31, 1<<32 - 2, 1<<32 - 1}

func fuzzID(b byte) uint32 { return fuzzIDs[int(b)%len(fuzzIDs)] + uint32(int(b)/len(fuzzIDs)) }

// fuzzRecords turns data into records, four bytes each: op, client, file,
// shape. op's low two bits pick OfferFiles, GetSources, SearchRes or
// SearchReq, bit 2 tags the record with one of four servers (bits 3–4),
// and the top three bits repeat it 2^k times. shape's low three bits give
// 1–8 files (consecutive IDs from the file byte's), and each repetition
// moves the client on by shape>>3: 0 repeats the same pairs, anything
// else makes new ones, wrapping past 2³²−1. A repeated 8-file record
// crosses mergeFloor.
func fuzzRecords(data []byte, emit func(*xmlenc.Record)) {
	for ; len(data) >= 4; data = data[4:] {
		op, client, file, shape := data[0], fuzzID(data[1]), fuzzID(data[2]), data[3]
		r := &xmlenc.Record{Dir: xmlenc.DirQuery}
		switch op & 3 {
		case 0:
			r.Op = "OfferFiles"
		case 1:
			r.Op = "GetSources"
		case 2:
			r.Op, r.Dir = "SearchRes", xmlenc.DirAnswer
		default:
			r.Op = "SearchReq"
		}
		if op&4 != 0 {
			r.Server = fmt.Sprintf("srv-%d", op>>3&3)
		}
		for i := range uint32(shape&7 + 1) {
			r.FileRefs = append(r.FileRefs, file+i)
			r.Files = append(r.Files, xmlenc.FileInfo{ID: file + i, SizeKB: uint64(shape)<<10 | uint64(i)})
		}
		for rep := range uint32(1) << (op >> 5) {
			r.Client = client + rep*uint32(shape>>3)
			emit(r)
		}
	}
}

// checkCollector compares c's figures with ref's and checks that each of
// c's pair sets holds at most twice its distinct pairs plus mergeFloor.
func checkCollector(t *testing.T, when string, c *Collector, ref *refCollector) {
	t.Helper()
	if got, want := c.Finalize().Render(), ref.Finalize().Render(); got != want {
		t.Fatalf("%s: figures differ from the reference:\n%s\nwant\n%s", when, got, want)
	}
	for name, s := range map[string]*pairSet{"provide": &c.provide, "ask": &c.ask, "server": &c.serverClients} {
		if bound := 2*s.run + mergeFloor; cap(s.buf) > bound {
			t.Fatalf("%s: %s pairs hold %d slots for %d distinct pairs, over %d", when, name, cap(s.buf), s.run, bound)
		}
	}
}

// FuzzCollectorMatchesReference: over any stream of offers, asks, search
// answers and srv-tagged records, the Collector renders what the
// map-based reference renders — at a Finalize part-way, and again after
// more writes.
//
//	go test -run '^$' -fuzz '^FuzzCollectorMatchesReference$' -fuzztime 15s ./internal/analysis/
func FuzzCollectorMatchesReference(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 2, 3, 1, 1, 2, 3, 0, 12, 12, 7, 1, 12, 0, 0})
	f.Add(uint8(1), []byte{0xe0, 0, 0, 0x0f, 0xe1, 5, 5, 0x0f, 0xe4, 3, 4, 0x07, 0xe5, 11, 12, 0xff})
	f.Add(uint8(3), []byte{0xe0, 0, 100, 0x87, 0xe1, 0, 100, 0x47, 0xe0, 200, 0, 0x07, 0x02, 4, 4, 4, 0xe3, 9, 9, 9})
	f.Fuzz(func(t *testing.T, split uint8, data []byte) {
		cut := min(4*int(split), len(data))
		c, ref := NewCollector(), newRefCollector()
		write := func(r *xmlenc.Record) {
			c.Write(r)
			ref.Write(r)
		}
		fuzzRecords(data[:cut], write)
		checkCollector(t, "first Finalize", c, ref)
		fuzzRecords(data[cut:], write)
		checkCollector(t, "Finalize after more writes", c, ref)
	})
}

// TestCollectorHoldsDistinctPairs: a million offer observations over ten
// thousand distinct pairs leave the collector holding about twice the
// distinct pairs, not every observation, and a merge on top of that
// allocates only its tail-sized scratch.
func TestCollectorHoldsDistinctPairs(t *testing.T) {
	const files, clients, observations = 100, 100, 1_000_000
	c := NewCollector()
	r := randx.New(3, 3)
	rec := offerRec(0, xmlenc.FileInfo{})
	for range observations {
		rec.Client = uint32(r.IntN(clients))
		rec.Files[0].ID = uint32(r.IntN(files))
		c.Write(rec)
	}
	if bound := 2*files*clients + mergeFloor; cap(c.provide.buf) > bound {
		t.Fatalf("%d observations of %d distinct pairs hold %d slots, over %d", observations, files*clients, cap(c.provide.buf), bound)
	}
	// A merge once the run is full allocates one tail-sized scratch,
	// rounded up to the heap's 8 KiB pages, and nothing else: the buffer
	// is not regrown.
	s := &c.provide
	for len(s.buf) < s.limit-1 {
		s.add(s.buf[0])
	}
	tail := s.limit - s.run
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.add(s.buf[0])
	runtime.ReadMemStats(&after)
	if got, want := after.TotalAlloc-before.TotalAlloc, uint64(8*tail); got > want+8192 {
		t.Fatalf("a merge of a %d-pair tail allocated %d bytes, want about %d", tail, got, want)
	}
	f := c.Finalize()
	if f.Fig4.N() != files || f.Fig6.N() != clients || f.Fig4.Count(clients) != files {
		t.Fatalf("figures: fig4 %v, fig6 %v", f.Fig4.Points(), f.Fig6.Points())
	}
}

// TestRadixSortMatchesSort: on keys that share every digit, some, or none,
// the radix sort orders what slices.Sort orders, whichever buffer it ends in.
func TestRadixSortMatchesSort(t *testing.T) {
	r := randx.New(4, 4)
	for _, mask := range []uint64{0, 0xff, 0xffff_0000_ffff, 0xff00_0000_0000_00ff, math.MaxUint64} {
		for _, n := range []int{0, 1, 2, 3, 100, 5000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = r.Uint64()&mask | 0x0100_0000_0000_0000
			}
			want := slices.Sorted(slices.Values(keys))
			if got := radixSort(keys, make([]uint64, n)); !slices.Equal(got, want) {
				t.Fatalf("mask %#x, %d keys: not sorted", mask, n)
			}
		}
	}
}

// BenchmarkPairSetStall measures the longest single add of a pairSet that
// holds a given number of distinct pairs: the add that triggers a merge.
// The set first takes every pair once, then three times as many
// re-observations drawn at random, so that it merges at least twice while
// its run no longer grows — each time a radix sort of a run-sized tail and
// a merge of both. The keys are an odd multiple of the pair's index, so
// every 8-bit digit varies (the sort's worst case). It reports the longest
// add while the run grows, the longest once it is full, and the adds
// between two merges at the full size.
//
//	go test -run '^$' -bench '^BenchmarkPairSetStall$' -benchtime 1x ./internal/analysis/
func BenchmarkPairSetStall(b *testing.B) {
	const mult = 0x9e37_79b9_7f4a_7c15
	for _, distinct := range []int{100_000, 1_000_000, 4_000_000} {
		b.Run(fmt.Sprint(distinct), func(b *testing.B) {
			var growing, full time.Duration
			for range b.N {
				var s pairSet
				for i := range distinct {
					t0 := time.Now()
					s.add(uint64(i) * mult)
					growing = max(growing, time.Since(t0))
				}
				r := randx.New(5, 5)
				for range 3 * distinct {
					k := uint64(r.IntN(distinct)) * mult
					t0 := time.Now()
					s.add(k)
					full = max(full, time.Since(t0))
				}
				if n := len(s.sorted()); n != distinct {
					b.Fatalf("%d distinct pairs, want %d", n, distinct)
				}
			}
			b.ReportMetric(float64(growing.Microseconds())/1e3, "grow-stall-ms")
			b.ReportMetric(float64(full.Microseconds())/1e3, "full-stall-ms")
			b.ReportMetric(float64(distinct), "adds/full-merge")
		})
	}
}

// BenchmarkCollector feeds a collector and a 4-window set a seeded stream
// shaped like the benchmark's dataset (~100k offers at ~3.4× duplication,
// ~35k distinct asks, 12k files, 3k clients) and reports the write cost a
// record and the Finalize + Render cost a job.
//
//	go test -run '^$' -bench '^BenchmarkCollector$' ./internal/analysis/
func BenchmarkCollector(b *testing.B) {
	const files, clients, offerPairs, askPairs = 12_000, 3_000, 100_000, 35_000
	r := randx.New(29, 29)
	// Each client shares a list of files and re-announces from it, so the
	// offers' pairs repeat the lists' ~29k distinct pairs ~3.4 times.
	shares := make([][]uint32, clients)
	for range offerPairs * 10 / 34 {
		c := r.IntN(clients)
		shares[c] = append(shares[c], uint32(r.IntN(files)))
	}
	var recs []*xmlenc.Record
	for n := 0; n < offerPairs; {
		c := r.IntN(clients)
		if len(shares[c]) == 0 {
			continue
		}
		rec := offerRec(uint32(c))
		for range min(4, len(shares[c])) {
			id := shares[c][r.IntN(len(shares[c]))]
			rec.Files = append(rec.Files, xmlenc.FileInfo{ID: id, SizeKB: uint64(id)*7 + 1})
			n++
		}
		recs = append(recs, rec)
	}
	for range askPairs {
		recs = append(recs, askRec(uint32(r.IntN(clients)), uint32(r.IntN(files))))
	}
	stream := make([]*xmlenc.Record, len(recs))
	for i, j := range r.Perm(len(recs)) {
		stream[i] = recs[j]
		stream[i].T = float64(i)
	}

	var write, finalize time.Duration
	for range b.N {
		t0 := time.Now()
		c := NewCollector()
		ws, err := NewWindowSet(float64(len(stream)), 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range stream {
			c.Write(rec)
			ws.Write(rec)
		}
		t1 := time.Now()
		if len(c.Finalize().Render())+len(ws.Finalize().Render()) == 0 {
			b.Fatal("empty report")
		}
		write += t1.Sub(t0)
		finalize += time.Since(t1)
	}
	b.ReportMetric(float64(write.Nanoseconds())/float64(b.N)/float64(len(stream)), "write-ns/record")
	b.ReportMetric(float64(finalize.Milliseconds())/float64(b.N), "finalize-ms")
}
