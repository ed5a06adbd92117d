package analysis

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"time"

	"edtrace/internal/core"
	"edtrace/internal/pcap"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
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

// checkCollector compares c's figures with ref's and checks what each of
// c's pair sets holds once finalized: its run, trimmed to its length, at
// most 10 bytes a distinct pair, and no tail buffer. It checks the sizes'
// table too.
func checkCollector(t *testing.T, when string, c *Collector, ref *refCollector) {
	t.Helper()
	if got, want := c.Finalize().Render(), ref.Finalize().Render(); got != want {
		t.Fatalf("%s: figures differ from the reference:\n%s\nwant\n%s", when, got, want)
	}
	for name, s := range map[string]*pairSet{"provide": &c.provide, "ask": &c.ask, "server": &c.serverClients} {
		checkFinished(t, when+": "+name, s)
	}
	checkSizes(t, when, &c.sizes)
}

// checkSizes checks what a finished sizeTable holds: a table trimmed to
// its last sized ID, nothing past its length, at most 4n + 2·denseSlack
// IDs for its n sized files, a seen bit for each, and a far map of IDs
// past the table only.
func checkSizes(t *testing.T, when string, s *sizeTable) {
	t.Helper()
	seen := 0
	for _, w := range s.seen {
		seen += bits.OnesCount64(w)
	}
	if seen+len(s.far) != s.n {
		t.Fatalf("%s: %d sized files, %d seen bits and %d far", when, s.n, seen, len(s.far))
	}
	if cap(s.kb) != len(s.kb) || cap(s.seen) != len(s.seen) || len(s.seen) != (len(s.kb)+63)/64 {
		t.Fatalf("%s: a finished table of %d IDs holds %d sizes and %d seen words of %d", when, len(s.kb), cap(s.kb), len(s.seen), cap(s.seen))
	}
	if len(s.kb) > 0 && s.seen[(len(s.kb)-1)/64]>>((len(s.kb)-1)%64)&1 == 0 {
		t.Fatalf("%s: a finished table of %d IDs does not size its last", when, len(s.kb))
	}
	if len(s.kb) > 4*s.n+2*denseSlack {
		t.Fatalf("%s: %d sized files take a table of %d IDs, over 4n + %d", when, s.n, len(s.kb), 2*denseSlack)
	}
	for id := range s.far {
		if int(id) < len(s.kb) {
			t.Fatalf("%s: far ID %d lies within the table's %d", when, id, len(s.kb))
		}
	}
}

// checkFinished checks the byte bounds of a finished set.
func checkFinished(t *testing.T, what string, s *pairSet) {
	t.Helper()
	if s.tail != nil {
		t.Fatalf("%s: a finished set holds a tail of %d slots", what, cap(s.tail))
	}
	if cap(s.run) != len(s.run) {
		t.Fatalf("%s: a finished run of %d bytes holds %d", what, len(s.run), cap(s.run))
	}
	if len(s.run) > 10*s.n {
		t.Fatalf("%s: %d distinct pairs take %d bytes, over 10 a pair", what, s.n, len(s.run))
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
// thousand distinct pairs leave the collector holding the distinct pairs
// in at most 4 bytes each and a tail no longer than its run, not every
// observation, and a merge of a tail the run already holds allocates only
// its tail-sized scratch.
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
	s := &c.provide
	if s.n != files*clients || len(s.run) > 4*s.n || cap(s.tail) > s.limit() {
		t.Fatalf("%d observations of %d distinct pairs hold %d pairs in %d bytes and a tail of %d slots, want at most %d bytes and %d slots",
			observations, files*clients, s.n, len(s.run), cap(s.tail), 4*files*clients, s.limit())
	}
	// A merge that adds no pair allocates one tail-sized scratch, rounded
	// up to the heap's 8 KiB pages, and nothing else: the run is kept.
	const held = 7<<32 | 7
	for len(s.tail) < s.limit()-1 {
		s.add(held)
	}
	tail, run := s.limit(), &s.run[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.add(held)
	runtime.ReadMemStats(&after)
	if got, want := after.TotalAlloc-before.TotalAlloc, uint64(8*tail); got > want+8192 || &s.run[0] != run || len(s.tail) != 0 {
		t.Fatalf("a merge of a %d-pair tail allocated %d bytes, want about %d, and the run moved: %v", tail, got, want, &s.run[0] != run)
	}
	f := c.Finalize()
	if f.Fig4.N() != files || f.Fig6.N() != clients || f.Fig4.Count(clients) != files {
		t.Fatalf("figures: fig4 %v, fig6 %v", f.Fig4.Points(), f.Fig6.Points())
	}
	checkFinished(t, "provide", s)
	if len(s.run) > 4*files*clients {
		t.Fatalf("%d distinct pairs take %d bytes, over 4 a pair", files*clients, len(s.run))
	}
}

// pairs decodes the set's run.
func (s *pairSet) pairs() []uint64 {
	var out []uint64
	var p uint64
	for at := 0; at < len(s.run); {
		p, at = nextPair(s.run, at, p)
		out = append(out, p)
	}
	return out
}

// checkRun finishes s and checks it against the pairs added to it: its run
// decodes to them, sorted and deduplicated, its groups and low-half counts
// are theirs, and it holds the bytes of a finished set.
func checkRun(t *testing.T, s *pairSet, added []uint64) {
	t.Helper()
	s.finish()
	want := slices.Compact(slices.Sorted(slices.Values(added)))
	if got := s.pairs(); !slices.Equal(got, want) || s.n != len(want) {
		t.Fatalf("run of %d pairs (n %d) decodes to %d pairs, want %d; first difference at %d",
			len(s.run), s.n, len(got), len(want), firstDiff(got, want))
	}
	var groups, wantGroups []keyCount
	s.groups(func(hi uint32, n int) { groups = append(groups, keyCount{hi, n}) })
	lows := make(map[uint32]int)
	for _, p := range want {
		if k := len(wantGroups) - 1; k >= 0 && wantGroups[k].key == uint32(p>>32) {
			wantGroups[k].n++
		} else {
			wantGroups = append(wantGroups, keyCount{uint32(p >> 32), 1})
		}
		lows[uint32(p)]++
	}
	if !slices.Equal(groups, wantGroups) {
		t.Fatalf("groups %v, want %v", groups, wantGroups)
	}
	wantLows := make([]keyCount, 0, len(lows))
	for k, n := range lows {
		wantLows = append(wantLows, keyCount{k, n})
	}
	slices.SortFunc(wantLows, func(a, b keyCount) int { return cmp.Compare(a.key, b.key) })
	if got := s.lowCounts(); !slices.Equal(got, wantLows) {
		t.Fatalf("low counts %v, want %v", got, wantLows)
	}
	checkFinished(t, "run", s)
}

func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// fuzzKeys are the pairs a fuzz op jumps to: both ends of uint64, both ends
// of a high half, high halves 2³²−1 apart, and one whose digits all differ.
var fuzzKeys = [...]uint64{0, 1, 1<<32 - 1, 1 << 32, (1<<32 - 1) << 32, 1<<64 - 1, 1<<64 - 2, 1 << 63, 0x9e37_79b9_7f4a_7c15}

// FuzzPairRun: over any sequence of adds, with the set finished between
// them, the run holds what slices.Sort and slices.Compact make of every pair
// added so far. data is read two bytes an op, ctl and x. ctl's low two
// bits pick the op: jump to fuzzKeys[x] and add it; add a group of
// (x+1)<<(ctl>>5) pairs sharing the current high half, the low half
// stepping by ctl>>2&7 (0 repeats one pair), wrapping within the group;
// move the current pair on by x<<(ctl>>2&63) and add it; or finish and
// check.
//
//	go test -run '^$' -fuzz '^FuzzPairRun$' -fuzztime 15s ./internal/analysis/
func FuzzPairRun(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 3, 0, 2, 1})
	f.Add([]byte{0, 4, 0xe5, 0xff, 3, 0, 0, 2, 0xe1, 0xff, 3, 0})
	f.Add([]byte{0xa1, 9, 0x82, 1, 0xa5, 9, 3, 0, 0xe1, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s pairSet
		var added []uint64
		var k uint64
		add := func(p uint64) {
			s.add(p)
			added = append(added, p)
		}
		for ; len(data) >= 2 && len(added) < 1<<16; data = data[2:] {
			ctl, x := data[0], data[1]
			switch ctl & 3 {
			case 0:
				k = fuzzKeys[int(x)%len(fuzzKeys)]
				add(k)
			case 1:
				step := uint32(ctl >> 2 & 7)
				for range (int(x) + 1) << (ctl >> 5) {
					k = k&^math.MaxUint32 | uint64(uint32(k)+step)
					add(k)
				}
			case 2:
				k += uint64(x) << (ctl >> 2 & 63)
				add(k)
			default:
				checkRun(t, &s, added)
			}
		}
		checkRun(t, &s, added)
	})
}

// TestRunBytesOnBenchCapture: on a capture shaped like the benchmark's
// (3,000 clients, 12,000 files, an hour, no scanners or heavy clients), a
// finished collector holds each distinct offer and ask pair in at most 3
// bytes, and each sized file in at most 9, none of them far.
func TestRunBytesOnBenchCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates an hour of a 3,000-client server")
	}
	cfg := core.DefaultSimConfig()
	cfg.Workload.Seed = 31
	cfg.Workload.NumClients = 3_000
	cfg.Workload.NumFiles = 12_000
	cfg.Workload.ScannerFraction = 0
	cfg.Workload.HeavyFraction = 0
	cfg.Traffic.Duration = simtime.Hour
	cfg.FrameMangleRate = 5e-4
	w, err := core.NewSimWorld(cfg, &pcap.Ledger{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	p := core.NewPipeline(cfg.ServerIP, cfg.FileBytePair, c)
	if _, err := w.RunFrames(context.Background(), func(now simtime.Time, frame []byte) error {
		return p.ProcessFrame(now, frame)
	}); err != nil {
		t.Fatal(err)
	}
	c.Finalize()
	sz := &c.sizes
	perFile := float64(8*(len(sz.kb)+len(sz.seen))) / float64(sz.n)
	t.Logf("sizes: %d files in a table of %d IDs, %.2f bytes a file, %d far", sz.n, len(sz.kb), perFile, len(sz.far))
	if sz.n < 10_000 || perFile > 9 || len(sz.far) != 0 {
		t.Errorf("sizes: %d files take %.2f bytes each and %d are far, want at least 10,000 files at most 9 bytes each, none far", sz.n, perFile, len(sz.far))
	}
	for name, s := range map[string]*pairSet{"provide": &c.provide, "ask": &c.ask} {
		perPair := float64(len(s.run)) / float64(s.n)
		t.Logf("%s: %d distinct pairs in %d bytes, %.2f a pair", name, s.n, len(s.run), perPair)
		if s.n < 10_000 || perPair > 3 {
			t.Errorf("%s: %d distinct pairs take %.2f bytes each, want at least 10,000 pairs at most 3 bytes each", name, s.n, perPair)
		}
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
			lows := make([]uint32, n)
			for i, k := range keys {
				lows[i] = uint32(k)
			}
			want32 := slices.Sorted(slices.Values(lows))
			if got := radixSort(lows, make([]uint32, n)); !slices.Equal(got, want32) {
				t.Fatalf("mask %#x, %d uint32 keys: not sorted", mask, n)
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
				if s.finish(); s.n != distinct {
					b.Fatalf("%d distinct pairs, want %d", s.n, distinct)
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
