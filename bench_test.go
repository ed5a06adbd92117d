package edtrace

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §3 for the experiment index):
//
//	BenchmarkTable1Headline   — §2.3/§2.5 headline counters
//	BenchmarkFig2CaptureLoss  — per-second capture losses under peaks
//	BenchmarkFig3AnonArrays   — anonymisation bucket skew, both byte pairs
//	BenchmarkFig4Providers    — providers-per-file distribution + fit
//	BenchmarkFig5Askers       — askers-per-file distribution + fit
//	BenchmarkFig6FilesPerProvider / BenchmarkFig7FilesPerAsker
//	BenchmarkFig8FileSizes    — size histogram + CD-size peak matching
//	BenchmarkAblation*        — the paper's data-structure arguments
//	BenchmarkDecodeThroughput / BenchmarkPipeline — the real-time claim
//	BenchmarkSessionPipeline  — the Session hot path (batched queue)
//	BenchmarkSessionMirror    — the live path: the daemon's tap into it
//	BenchmarkDaemonLoad       — edload swarm → edserverd over real TCP
//	(BenchmarkServerHandle, in internal/server, isolates the sharded
//	index under parallel load)
//
// Figure benches share one simulated capture (built once), so -bench=.
// stays minutes, not hours. The recorded end-to-end and per-layer
// numbers are the benchmark's (bench/README.md), not these.

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edtrace/internal/analysis"
	"edtrace/internal/anonymize"
	"edtrace/internal/clients"
	"edtrace/internal/core"
	"edtrace/internal/ed2k"
	"edtrace/internal/edload"
	"edtrace/internal/edserverd"
	"edtrace/internal/netsim"
	"edtrace/internal/obs"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
	"edtrace/internal/tcpsim"
	"edtrace/internal/workload"
)

// benchWorld is the shared capture all figure benches analyse.
var benchWorld struct {
	once sync.Once
	res  *Result
	err  error
}

func sharedRun(b *testing.B) *Result {
	b.Helper()
	benchWorld.once.Do(func() {
		sim := core.DefaultSimConfig()
		sim.Workload.NumClients = 6000
		sim.Workload.NumFiles = 60000
		sim.Traffic.Duration = 2 * simtime.Day
		benchWorld.res, benchWorld.err = NewSession(NewSimSource(sim), WithFigures()).
			Run(context.Background())
	})
	if benchWorld.err != nil {
		b.Fatal(benchWorld.err)
	}
	return benchWorld.res
}

// BenchmarkTable1Headline regenerates the headline counters (abstract,
// §2.3, §2.5): message volume, decode failure split, distinct clients
// and fileIDs. Reported metrics are the paper-comparable ratios.
func BenchmarkTable1Headline(b *testing.B) {
	res := sharedRun(b)
	for i := 0; i < b.N; i++ {
		_ = res.Report.Pipeline.UndecodedRate()
	}
	p := res.Report.Pipeline
	b.ReportMetric(float64(p.EDMessages), "messages")
	b.ReportMetric(1e4*p.UndecodedRate(), "undecoded_bp")     // paper: 68 bp
	b.ReportMetric(100*p.StructuralShare(), "structural_pct") // paper: 78 %
	b.ReportMetric(float64(res.Report.DistinctClients), "clients")
	b.ReportMetric(float64(res.Report.DistinctFiles), "fileIDs")
	b.ReportMetric(float64(p.Fragments), "fragments")
	b.ReportMetric(float64(p.UDPMalformed), "malformed")
}

// BenchmarkFig2CaptureLoss runs a capture with a deliberately starved
// capture machine and reports the loss shape: overall rate (paper:
// ~8e-6, bursty) and how many seconds carry losses.
func BenchmarkFig2CaptureLoss(b *testing.B) {
	var fig *analysis.Fig2
	for i := 0; i < b.N; i++ {
		sim := core.DefaultSimConfig()
		sim.Workload.NumClients = 2500
		sim.Workload.NumFiles = 20000
		sim.Traffic.Duration = 12 * simtime.Hour
		sim.KernelBufferBytes = 4 << 10
		sim.ServicePerPoll = 2
		res, err := NewSession(NewSimSource(sim)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		fig = res.Fig2
	}
	b.ReportMetric(1e6*fig.LossRate(), "loss_ppm")
	b.ReportMetric(float64(fig.TotalLost), "lost_frames")
	b.ReportMetric(float64(fig.BurstSeconds()), "bursty_seconds")
	b.ReportMetric(float64(len(fig.PerSecond)), "seconds_observed")
}

// BenchmarkFig3AnonArrays feeds one polluted catalog through the fileID
// anonymisation structure under both byte pairs and reports the bucket
// skew the paper's Figure 3 shows (bucket 0 pathological vs balanced).
func BenchmarkFig3AnonArrays(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.NumFiles = 120000
	cfg.NumClients = 40000
	cat, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, pair [2]int) (maxSize int, mean float64) {
		b.Helper()
		var fb *anonymize.FileBuckets
		for i := 0; i < b.N; i++ {
			fb = anonymize.NewFileBuckets(pair[0], pair[1])
			for j := range cat.Files {
				fb.Anonymize(cat.Files[j].ID)
			}
		}
		_, maxSize = fb.MaxBucket()
		return maxSize, float64(len(cat.Files)) / float64(anonymize.BucketCount)
	}
	b.Run("first-two-bytes", func(b *testing.B) {
		maxSize, mean := run(b, [2]int{0, 1})
		b.ReportMetric(float64(maxSize), "max_bucket")
		b.ReportMetric(float64(maxSize)/mean, "skew_x") // paper: 24024 vs ~1342 mean
	})
	b.Run("chosen-bytes", func(b *testing.B) {
		maxSize, mean := run(b, [2]int{5, 11})
		b.ReportMetric(float64(maxSize), "max_bucket") // paper: 819
		b.ReportMetric(float64(maxSize)/mean, "skew_x")
	})
}

// figureBench reports distribution metrics from the shared run.
func figureBench(b *testing.B, get func(*analysis.Figures) metricSet) {
	res := sharedRun(b)
	var m metricSet
	for i := 0; i < b.N; i++ {
		m = get(res.Figures)
	}
	for k, v := range m {
		b.ReportMetric(v, k)
	}
}

type metricSet map[string]float64

// BenchmarkFig4Providers regenerates "number of clients providing each
// file". Paper: power-law over 4+ decades, max >10^4, millions provided
// by one client. Shape checks: alpha and the singleton share.
func BenchmarkFig4Providers(b *testing.B) {
	figureBench(b, func(f *analysis.Figures) metricSet {
		return metricSet{
			"alpha":        f.Fit4.Alpha,
			"ks":           f.Fit4.KS,
			"max_provider": float64(f.Fig4.Max()),
			"files_at_1":   float64(f.Fig4.Count(1)),
		}
	})
}

// BenchmarkFig5Askers regenerates "number of clients asking for each
// file". Paper: power-law, maximum an order of magnitude above Fig 4's.
func BenchmarkFig5Askers(b *testing.B) {
	figureBench(b, func(f *analysis.Figures) metricSet {
		return metricSet{
			"alpha":      f.Fit5.Alpha,
			"ks":         f.Fit5.KS,
			"max_askers": float64(f.Fig5.Max()),
			"files_at_1": float64(f.Fig5.Count(1)),
		}
	})
}

// BenchmarkFig6FilesPerProvider regenerates "number of files provided by
// each client". Paper: NOT a power law; clients providing thousands due
// to share caps. The cap pile-up is reported directly.
func BenchmarkFig6FilesPerProvider(b *testing.B) {
	figureBench(b, func(f *analysis.Figures) metricSet {
		return metricSet{
			"ks_powerlaw":  f.Fit6.KS, // should be clearly worse than Fig4's
			"max_files":    float64(f.Fig6.Max()),
			"at_cap_2000":  float64(f.Fig6.Count(2000)),
			"near_cap_sum": float64(f.Fig6.Count(2000) + f.Fig6.Count(5000)),
		}
	})
}

// BenchmarkFig7FilesPerAsker regenerates "number of files asked for by
// each client". Paper: several regimes plus a singular peak at exactly
// 52 queries. The peak is reported against its neighbours.
func BenchmarkFig7FilesPerAsker(b *testing.B) {
	figureBench(b, func(f *analysis.Figures) metricSet {
		at52 := f.Fig7.Count(52)
		neighbours := (f.Fig7.Count(50) + f.Fig7.Count(51) + f.Fig7.Count(53) + f.Fig7.Count(54)) / 4
		if neighbours == 0 {
			neighbours = 1
		}
		return metricSet{
			"at_52":       float64(at52),
			"peak_x":      float64(at52) / float64(neighbours), // paper: clear spike
			"max_asked":   float64(f.Fig7.Max()),
			"ks_powerlaw": f.Fit7.KS,
		}
	})
}

// BenchmarkFig8FileSizes regenerates the file-size histogram. Paper:
// small-file mass plus peaks at 175/233/350/700 MB, 1 GB, 1.4 GB.
func BenchmarkFig8FileSizes(b *testing.B) {
	res := sharedRun(b)
	var matched int
	var peaks int
	for i := 0; i < b.N; i++ {
		p, m := analysis.Fig8Peaks(res.Figures.Fig8)
		peaks, matched = len(p), m
	}
	b.ReportMetric(float64(matched), "cd_peaks_matched") // paper: 6
	b.ReportMetric(float64(peaks), "peaks_detected")
	b.ReportMetric(float64(res.Figures.Fig8.Quantile(0.5)), "median_kb")
}

// --- Ablations: the paper's §2.4 data-structure arguments -------------

// BenchmarkAblationClientAnon is the curve the clientID table was chosen
// from: the pipeline's hashed table against the paper's direct-index
// array (paged), at 10^3, 10^5 and 10^7 distinct IDs, each either dense
// (the low 2^24 IDs, where the array's pages fill) or uniform over the
// 32-bit space (a capture's high IDs, where nearly every client has a
// page to itself). Each row first inserts every ID once, untimed except
// for the longest single insert, and reports the table's heap per client;
// the timed loop then looks up repeat clients, the billions-of-lookups
// pattern of a capture. The array's uniform 10^7 row is not run: it
// touches all 2^20 pages, 16 GiB.
func BenchmarkAblationClientAnon(b *testing.B) {
	const draws = 1 << 20
	type clientAnonymizer interface{ Anonymize(uint32) uint32 }
	tables := []struct {
		name  string
		fresh func() clientAnonymizer
	}{
		{"table", func() clientAnonymizer { return anonymize.NewClientTable() }},
		{"direct-array", func() clientAnonymizer { return anonymize.NewClientDirect() }},
	}
	// Both spaces are walked by a bijection, so the n IDs are distinct
	// without a set to deduplicate them: an odd multiplier permutes the
	// low 2^24, murmur3's finaliser the whole 32-bit space.
	spaces := []struct {
		name string
		id   func(i uint32) uint32
	}{
		{"dense", func(i uint32) uint32 { return i * 2654435761 & (1<<24 - 1) }},
		{"uniform", func(i uint32) uint32 {
			i ^= i >> 16
			i *= 0x85ebca6b
			i ^= i >> 13
			i *= 0xc2b2ae35
			return i ^ i>>16
		}},
	}
	heapAlloc := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, n := range []int{1e3, 1e5, 1e7} {
		for _, space := range spaces {
			for _, tab := range tables {
				name := fmt.Sprintf("%s-%d/%s", space.name, n, tab.name)
				if n == 1e7 && space.name == "uniform" && tab.name == "direct-array" {
					continue // every page of the array: 16 GiB
				}
				// The table outlives the ramp-up of b.N, so the insert
				// pass runs once a row.
				var anon clientAnonymizer
				var lookups []uint32
				var perClient float64
				var longest time.Duration
				b.Run(name, func(b *testing.B) {
					if anon == nil {
						before := heapAlloc()
						anon = tab.fresh()
						// The collector is off meanwhile, so the longest
						// insert is the structure's own stall (a page, a
						// map's growth) or a first touch of fresh memory,
						// not a mark assist.
						gc := debug.SetGCPercent(-1)
						for i := 0; i < n; i++ {
							id := space.id(uint32(i))
							t0 := time.Now()
							anon.Anonymize(id)
							longest = max(longest, time.Since(t0))
						}
						debug.SetGCPercent(gc)
						perClient = float64(heapAlloc()-before) / float64(n)
						r := randx.New(42, 42)
						lookups = make([]uint32, draws)
						for i := range lookups {
							lookups[i] = space.id(uint32(r.IntN(n)))
						}
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						anon.Anonymize(lookups[i&(draws-1)])
					}
					b.ReportMetric(perClient, "B/client")
					b.ReportMetric(float64(longest.Nanoseconds()), "max-insert-ns")
				})
				anon, lookups = nil, nil // free the row before the next builds
			}
		}
	}
}

// fileAnonymizer is what the fileID ablation rows time: the pipeline's
// FileBuckets and the baselines the paper rejects.
type fileAnonymizer interface{ Anonymize(ed2k.FileID) uint32 }

// BenchmarkAblationFileAnon compares fileID anonymisation structures on
// a polluted stream: the paper's 65 536 sorted buckets (good and bad
// byte pairs), the hashtable, and the single sorted array whose
// insertions the paper calls prohibitive.
func BenchmarkAblationFileAnon(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.NumFiles = 60000
	cfg.NumClients = 30000
	cat, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := randx.New(7, 7)
	stream := make([]ed2k.FileID, 1<<18)
	for i := range stream {
		stream[i] = cat.Files[r.IntN(len(cat.Files))].ID
	}
	bench := func(b *testing.B, anon fileAnonymizer) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			anon.Anonymize(stream[i&(len(stream)-1)])
		}
	}
	b.Run("buckets-chosen-bytes", func(b *testing.B) {
		bench(b, anonymize.NewFileBuckets(5, 11))
	})
	b.Run("buckets-first-two", func(b *testing.B) {
		bench(b, anonymize.NewFileBuckets(0, 1))
	})
	b.Run("hashtable", func(b *testing.B) {
		bench(b, anonymize.NewFileMap())
	})
	b.Run("single-sorted-array", func(b *testing.B) {
		bench(b, anonymize.NewFileSingleSorted())
	})
}

// BenchmarkAblationFileAnonInsert isolates first-sight insertion — the
// operation the paper calls "prohibitive" for a single sorted array.
// Each benchmark op inserts a fixed batch of 20 000 distinct fileIDs into
// a fresh structure, so the quadratic baseline cannot run away with b.N.
func BenchmarkAblationFileAnonInsert(b *testing.B) {
	const batch = 20_000
	r := randx.New(11, 13)
	ids := make([]ed2k.FileID, batch)
	for i := range ids {
		var id ed2k.FileID
		for j := 0; j < 16; j += 4 {
			v := r.Uint32()
			id[j], id[j+1], id[j+2], id[j+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		ids[i] = id
	}
	bench := func(b *testing.B, fresh func() fileAnonymizer) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			anon := fresh()
			for _, id := range ids {
				anon.Anonymize(id)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/insert")
	}
	b.Run("buckets-chosen-bytes", func(b *testing.B) {
		bench(b, func() fileAnonymizer { return anonymize.NewFileBuckets(5, 11) })
	})
	b.Run("hashtable", func(b *testing.B) {
		bench(b, func() fileAnonymizer { return anonymize.NewFileMap() })
	})
	b.Run("single-sorted-array", func(b *testing.B) {
		bench(b, func() fileAnonymizer { return anonymize.NewFileSingleSorted() })
	})
}

// --- Real-time claim (§2.4: "able to decode udp traffic in real-time") -

// BenchmarkDecodeThroughput measures raw eDonkey decode speed; the
// paper's server averaged ~1570 messages/second over ten weeks.
func BenchmarkDecodeThroughput(b *testing.B) {
	msgs := [][]byte{
		ed2k.Encode(&ed2k.GetSources{Hashes: []ed2k.FileID{{1, 2, 3}}}),
		ed2k.Encode(&ed2k.StatReq{Challenge: 7}),
		ed2k.Encode(&ed2k.SearchReq{Expr: ed2k.And(ed2k.Keyword("mozart"), ed2k.SizeAtLeast(1<<20))}),
		ed2k.Encode(&ed2k.FoundSources{Hash: ed2k.FileID{9}, Sources: []ed2k.Endpoint{{ID: 1, Port: 2}}}),
	}
	var bytes int64
	for _, m := range msgs {
		bytes += int64(len(m))
	}
	b.SetBytes(bytes / int64(len(msgs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ed2k.Decode(msgs[i%len(msgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFrames builds n (a power of two) GetSources frames — the mix
// shared by the pipeline throughput benchmarks.
func benchFrames(n int) [][]byte {
	r := randx.New(3, 3)
	frames := make([][]byte, n)
	for i := range frames {
		var fid ed2k.FileID
		fid[0] = byte(i)
		fid[5] = byte(i >> 8)
		fid[11] = byte(r.Uint32())
		payload := ed2k.Encode(&ed2k.GetSources{Hashes: []ed2k.FileID{fid}})
		// Clients cluster in address space; uniform 2^32 srcs would make
		// this a page-allocation benchmark instead of a pipeline one.
		src := 0x20000000 + r.Uint32()%(1<<22)
		dg := netsim.EncodeUDP(src, 0x0A000001, 4672, 4665, payload)
		pkt := netsim.EncodeIPv4(netsim.IPv4Header{
			ID: uint16(i), Protocol: netsim.ProtoUDP, Src: src, Dst: 0x0A000001,
		}, dg)
		frames[i] = netsim.EncodeEthernet(src, 0x0A000001, pkt)
	}
	return frames
}

// BenchmarkPipeline measures the full per-frame pipeline (ethernet → IP
// → UDP → decode → anonymise → record) called directly — the end-to-end
// real-time path and the baseline for BenchmarkSessionPipeline.
func BenchmarkPipeline(b *testing.B) {
	p := core.NewPipeline(0x0A000001, [2]int{5, 11}, core.DiscardSink{})
	frames := benchFrames(1024)
	b.SetBytes(int64(len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ProcessFrame(simtime.Time(i), frames[i&1023]); err != nil {
			b.Fatal(err)
		}
	}
	st := p.Stats()
	if st.DecodedOK == 0 {
		b.Fatal("pipeline decoded nothing — benchmark frames are broken")
	}
	b.ReportMetric(float64(st.DecodedOK)/b.Elapsed().Seconds(), "msgs/s")
}

// replayFrames is the pool a replaySource re-emits: a power of two
// larger than the session's in-flight window.
const replayFrames = 2 * queueFrames

// replaySource feeds a fixed frame mix through a Session n times — the
// harness for measuring the Session hot path in isolation. Re-emitting
// the same slices bends EmitFunc's ownership rule, which is safe only
// because the pool (replayFrames) exceeds the session's maximum
// in-flight window (queueFrames, the batch being filled included, + the
// consumer's current batch of batchSize): by the time a slice is emitted
// again, the pipeline has long finished with it, and without a tee the
// pipeline neither retains nor mutates frames.
type replaySource struct {
	frames [][]byte
	n      int
}

func (s *replaySource) Frames(ctx context.Context, emit EmitFunc) error {
	mask := len(s.frames) - 1
	for i := 0; i < s.n; i++ {
		if err := emit(simtime.Time(i)*simtime.Microsecond, s.frames[i&mask]); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkSessionPipeline measures the same frame mix as
// BenchmarkPipeline flowing through Session.Run — source goroutine,
// bounded channel, pipeline stage. The difference between the two is the
// cost of decoupling the decoder from the capture loop.
func BenchmarkSessionPipeline(b *testing.B) {
	frames := benchFrames(replayFrames)
	src := &replaySource{frames: frames, n: b.N}
	b.SetBytes(int64(len(frames[0])))
	b.ReportAllocs() // CI gates this at 0 allocs/frame steady state
	b.ResetTimer()
	res, err := NewSession(src, WithServerIP(0x0A000001)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	st := res.Report.Pipeline
	if st.DecodedOK == 0 {
		b.Fatal("session decoded nothing — benchmark frames are broken")
	}
	b.ReportMetric(float64(st.DecodedOK)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkSessionPipelineMetrics is BenchmarkSessionPipeline with
// WithMetrics attached — the pair scripts/bench_obs.sh diffs to verify
// the instrumentation stays under its overhead budget.
func BenchmarkSessionPipelineMetrics(b *testing.B) {
	frames := benchFrames(replayFrames)
	src := &replaySource{frames: frames, n: b.N}
	reg := obs.NewRegistry()
	b.SetBytes(int64(len(frames[0])))
	b.ResetTimer()
	res, err := NewSession(src, WithServerIP(0x0A000001), WithMetrics(reg)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	st := res.Report.Pipeline
	if st.DecodedOK == 0 {
		b.Fatal("session decoded nothing — benchmark frames are broken")
	}
	if got := counterOf(reg, "edsession_frames_total"); got != uint64(b.N) {
		b.Fatalf("frames counter %d, want %d", got, b.N)
	}
	b.ReportMetric(float64(st.DecodedOK)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkSessionMirror is BenchmarkSessionPipeline on the live path:
// the same frame mix's payloads handed to LiveSource.Mirror, as the
// daemon's tap calls it, into a running Session with no sink. The caller
// keeps the queue at most half full, so every call is a frame encoded
// into a queue slot and processed, none a drop. CI gates it at 0
// allocs/frame: the queue's slots keep their buffers across recycling.
func BenchmarkSessionMirror(b *testing.B) {
	const serverIP = 0x0A000001
	const hdr = netsim.EthernetHeaderLen + netsim.IPv4HeaderLen + netsim.UDPHeaderLen
	frames := benchFrames(1024)
	src := NewLiveSource(0)
	var processed atomic.Uint64
	done := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = NewSession(src, WithServerIP(serverIP),
			WithProgress(func(p Progress) { processed.Store(p.Frames) }),
			WithProgressEvery(batchSize),
		).Run(context.Background())
		done <- err
	}()
	b.SetBytes(int64(len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for uint64(i) >= processed.Load()+queueFrames/2 {
			runtime.Gosched()
		}
		f := frames[i&1023]
		src.Mirror(binary.BigEndian.Uint32(f[netsim.EthernetHeaderLen+12:]), serverIP, f[hdr:])
	}
	src.Close()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	rep := res.Report
	if rep.Pipeline.DecodedOK != uint64(b.N) || rep.EthernetDropped != 0 {
		b.Fatalf("%d of %d mirrored frames decoded, %d dropped", rep.Pipeline.DecodedOK, b.N, rep.EthernetDropped)
	}
	b.ReportMetric(float64(rep.Pipeline.DecodedOK)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkTCPReconstruction quantifies the paper's footnote 2: the
// reason the analysis is UDP-only. The same small segment-loss rates that
// barely dent UDP datagram decoding destroy a superlinear fraction of TCP
// *messages*, because one lost segment stalls an entire flow.
func BenchmarkTCPReconstruction(b *testing.B) {
	for _, loss := range []struct {
		name string
		rate float64
	}{
		{"loss-0pct", 0},
		{"loss-0.5pct", 0.005},
		{"loss-2pct", 0.02},
	} {
		b.Run(loss.name, func(b *testing.B) {
			var res tcpsim.ExperimentResult
			for i := 0; i < b.N; i++ {
				res = tcpsim.ReconstructionExperiment{
					Flows: 400, MsgsPerFlow: 10, LossRate: loss.rate, Seed: uint64(i + 1),
				}.Run()
			}
			b.ReportMetric(100*res.RecoveryRate(), "recovered_pct")
			b.ReportMetric(float64(res.Stats.AbortedFlows), "aborted_flows")
			b.ReportMetric(float64(res.Stats.GapStalls), "gap_stalls")
		})
	}
}

// BenchmarkDaemonLoad measures the real deployment end to end: an
// edserverd daemon on loopback TCP under an edload client swarm, in
// round-trip messages per second (every answer verified in lockstep).
// The paper's server averaged ~1570 messages/second over ten weeks.
func BenchmarkDaemonLoad(b *testing.B) {
	d, err := edserverd.Start(edserverd.Config{UDPAddr: "off"})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	}()
	var sent, answers uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := edload.Run(context.Background(), edload.Config{
			Target:               edload.Target{Addrs: []string{d.TCPAddr().String()}},
			Clients:              100,
			Workload:             workload.SmallConfig(uint64(i+1), 100),
			MaxMessagesPerClient: 50,
		})
		if err != nil {
			b.Fatal(err)
		}
		sent += st.Sent
		answers += st.Answers
	}
	b.ReportMetric(float64(sent+answers)/2/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(sent)/float64(b.N), "msgs/swarm")
}

// BenchmarkSimulatorEventRate measures the discrete-event engine itself:
// virtual-seconds simulated per wall-second for a small world.
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultSimConfig()
		cfg.Workload.NumClients = 500
		cfg.Workload.NumFiles = 5000
		cfg.Workload.Seed = uint64(i + 1)
		var tc clients.TrafficConfig = cfg.Traffic
		tc.Duration = 2 * simtime.Hour
		cfg.Traffic = tc
		w, err := core.NewSimWorld(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		discard := func(simtime.Time, []byte) error { return nil }
		if _, err := w.RunFrames(context.Background(), discard); err != nil {
			b.Fatal(err)
		}
	}
}
