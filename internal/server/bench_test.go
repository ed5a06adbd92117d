package server

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"edtrace/internal/clients"
	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

// benchServer builds a pre-populated server: nFiles files announced by
// rotating clients, so GetSources and searches hit a warm index.
func benchServer(shards, nFiles int) (*Server, []ed2k.Message) {
	return benchServerWith(shards, nFiles, nil)
}

// benchServerWith is benchServer registering with reg: a non-nil reg turns
// the Handle timing on, as the daemon runs it.
func benchServerWith(shards, nFiles int, reg *obs.Registry) (*Server, []ed2k.Message) {
	s := NewShardedWith("bench", "bench", shards, reg)
	r := randx.New(1, 99)
	ids := make([]ed2k.FileID, nFiles)
	for i := range ids {
		var fid ed2k.FileID
		fid[0], fid[1], fid[2] = byte(i), byte(i>>8), byte(i>>16)
		fid[5] = byte(r.Uint32())
		ids[i] = fid
		e := ed2k.FileEntry{
			ID: fid,
			Tags: []ed2k.Tag{
				ed2k.StringTag(ed2k.FTFileName, fmt.Sprintf("word%d track%d.mp3", i%211, i)),
				ed2k.UintTag(ed2k.FTFileSize, uint32(1+i)<<10),
				ed2k.StringTag(ed2k.FTFileType, "Audio"),
			},
		}
		from := ed2k.ClientID(1000 + i%512)
		s.Handle(0, from, 4662, &ed2k.OfferFiles{Client: from, Port: 4662, Files: []ed2k.FileEntry{e}})
	}
	// The benchmark message mix approximates the paper's opcode shares:
	// source asks dominate, searches and pings trail, offers refresh.
	msgs := make([]ed2k.Message, 0, 4096)
	for i := 0; i < 4096; i++ {
		switch {
		case i%8 < 5:
			msgs = append(msgs, &ed2k.GetSources{Hashes: []ed2k.FileID{
				ids[r.IntN(nFiles)], ids[r.IntN(nFiles)],
			}})
		case i%8 < 6:
			msgs = append(msgs, &ed2k.SearchReq{Expr: ed2k.Keyword(fmt.Sprintf("word%d", r.IntN(211)))})
		case i%8 < 7:
			msgs = append(msgs, &ed2k.StatReq{Challenge: uint32(i)})
		default:
			j := r.IntN(nFiles)
			msgs = append(msgs, &ed2k.OfferFiles{
				Client: ed2k.ClientID(1000 + j%512), Port: 4662,
				Files: []ed2k.FileEntry{{
					ID: ids[j],
					Tags: []ed2k.Tag{
						ed2k.StringTag(ed2k.FTFileName, fmt.Sprintf("word%d track%d.mp3", j%211, j)),
						ed2k.UintTag(ed2k.FTFileSize, uint32(1+j)<<10),
						ed2k.StringTag(ed2k.FTFileType, "Audio"),
					},
				}},
			})
		}
	}
	return s, msgs
}

// BenchmarkServerHandle measures the Handle hot path on a warm index —
// the scaling claim behind the sharded refactor. The single-shard
// variants show the serial baseline and the single-lock collapse under
// parallelism; the sharded/parallel variant is what edserverd runs.
// "single-shard-serial-reused" is the serial baseline through one reused
// Answers, as a daemon session serves: CI's alloc gate holds it at 0
// allocs/op.
func BenchmarkServerHandle(b *testing.B) {
	const nFiles = 1 << 15
	run := func(b *testing.B, shards int, parallel, reused bool) {
		s, msgs := benchServer(shards, nFiles)
		mask := len(msgs) - 1
		var a Answers
		b.ResetTimer()
		if !parallel {
			for i := 0; i < b.N; i++ {
				if reused {
					s.HandleInto(&a, simtime.Time(i), ed2k.ClientID(1000+i%512), 4662, msgs[i&mask])
				} else {
					s.Handle(simtime.Time(i), ed2k.ClientID(1000+i%512), 4662, msgs[i&mask])
				}
			}
		} else {
			var cursor atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(cursor.Add(1))
					s.Handle(simtime.Time(i), ed2k.ClientID(1000+i%512), 4662, msgs[i&mask])
				}
			})
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	}
	b.Run("single-shard-serial", func(b *testing.B) { run(b, 1, false, false) })
	b.Run("single-shard-serial-reused", func(b *testing.B) { run(b, 1, false, true) })
	b.Run("single-shard-parallel", func(b *testing.B) { run(b, 1, true, false) })
	b.Run(fmt.Sprintf("sharded-%d-parallel", shardCountForCPU()), func(b *testing.B) {
		run(b, shardCountForCPU(), true, false)
	})
}

// BenchmarkServerSearch measures searches alone, over two indexes.
//
// "words" asks the kind benchServer's mix has none of: several keywords
// and constraints, so a candidate list is chosen among lists of very
// different lengths (a word's ~155 files, "mp3"'s MaxPostingList) and
// most candidates are rejected by the other operands before
// MaxSearchResults are found. Its names all read "word%d track%d.mp3",
// so they share most of their byte pairs.
//
// "catalog" asks what the serve benchmark asks: a workload.Generate
// catalog offered and searched by the clients' own plans (see
// catalogSearches). Beside ns/op it reports the share of the candidates
// whose signature passes that the keyword test then rejects.
// "catalog-reused" asks the same through one reused Answers.
func BenchmarkServerSearch(b *testing.B) {
	b.Run("words", func(b *testing.B) {
		const nFiles = 1 << 15
		s, _ := benchServer(1, nFiles)
		r := randx.New(2, 99)
		reqs := make([]*ed2k.SearchReq, 1024)
		for i := range reqs {
			word := ed2k.Keyword(fmt.Sprintf("word%d", r.IntN(211)))
			digits := ed2k.Keyword(fmt.Sprintf("track%d", 1+r.IntN(32))) // a substring of many track numbers
			var expr *ed2k.SearchExpr
			switch i % 4 {
			case 0:
				expr = ed2k.And(word, digits)
			case 1:
				expr = ed2k.And(ed2k.And(ed2k.Keyword("mp3"), word), ed2k.SizeAtLeast(uint32(r.IntN(nFiles))<<10))
			case 2:
				expr = ed2k.And(ed2k.AndNot(word, digits), ed2k.TypeIs("audio"))
			default:
				expr = ed2k.And(ed2k.Or(word, ed2k.Keyword(fmt.Sprintf("word%d", r.IntN(211)))), digits)
			}
			reqs[i] = &ed2k.SearchReq{Expr: expr}
		}
		runSearches(b, s, reqs, false)
	})
	b.Run("catalog", func(b *testing.B) {
		s, reqs := catalogSearches(b, 1)
		passed, rejected := 0, 0
		for _, m := range reqs {
			p, r := signaturePasses(s, m)
			passed, rejected = passed+p, rejected+r
		}
		runSearches(b, s, reqs, false)
		b.ReportMetric(float64(rejected)/float64(passed), "rejected/passed")
	})
	b.Run("catalog-reused", func(b *testing.B) {
		s, reqs := catalogSearches(b, 1)
		runSearches(b, s, reqs, true)
	})
}

func runSearches(b *testing.B, s *Server, reqs []*ed2k.SearchReq, reused bool) {
	var a Answers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reused {
			s.HandleInto(&a, simtime.Time(i), ed2k.ClientID(1000+i%512), 4662, reqs[i%len(reqs)])
		} else {
			s.Handle(simtime.Time(i), ed2k.ClientID(1000+i%512), 4662, reqs[i%len(reqs)])
		}
	}
}

// catalogSearches indexes a workload.Generate catalog the way the serve
// benchmark preloads its daemon — every client of the population offers
// what its plan offers, in population order, at the benchmark's sizes —
// and returns the searches the same plans ask.
func catalogSearches(b *testing.B, seed uint64) (*Server, []*ed2k.SearchReq) {
	wl := workload.DefaultConfig()
	wl.Seed = seed
	wl.NumFiles, wl.NumClients, wl.VocabWords = 20_000, 1_500, 1_000
	cat, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	pop, err := workload.GeneratePopulation(wl, cat)
	if err != nil {
		b.Fatal(err)
	}
	planner := clients.NewPlanner(cat, clients.DefaultTraffic())
	root := randx.New(seed, 0xBE7C4)
	s := New("bench", "bench")
	var reqs []*ed2k.SearchReq
	for i := range pop.Clients {
		c := &pop.Clients[i]
		for _, m := range planner.Messages(c, root.Split(uint64(i)+1), 48) {
			switch m := m.(type) {
			case *ed2k.OfferFiles:
				s.Handle(0, ed2k.ClientID(c.IP), 4662, m)
			case *ed2k.SearchReq:
				reqs = append(reqs, m)
			}
		}
	}
	if len(reqs) == 0 {
		b.Fatal("the population's plans ask no search")
	}
	return s, reqs
}

// signaturePasses walks the candidates handleSearch walks for m and
// counts those whose signature passes, and of them those a keyword of the
// expression then rejects. The clients ask ANDs of keywords and
// constraints, so a keyword rejects a candidate exactly when the tree
// with its constraints taken as true is false.
func signaturePasses(s *Server, m *ed2k.SearchReq) (passed, rejected int) {
	expr := lowerExpr(m.Expr, new([]ed2k.SearchExpr))
	lists, _, ok := s.cover(expr, nil)
	if !ok {
		return 0, 0
	}
	need := requiredSig(expr)
	budget, hits := MaxCandidates, 0
	for _, c := range lists {
		lst := c.postings[:min(len(c.postings), budget)]
		budget -= len(lst)
		for _, p := range lst {
			live := p.f.live.Load()
			if p.sig&need != need || live == 0 {
				continue
			}
			passed++
			if !keywordsHold(expr, c.leaf, p.f) {
				rejected++
			} else if evalExpr(expr, c.leaf, p.f, live) {
				if hits++; hits == MaxSearchResults {
					return passed, rejected
				}
			}
		}
	}
	return passed, rejected
}

// keywordsHold evaluates an AND tree's keywords against f, taking every
// other leaf as true.
func keywordsHold(e, known *ed2k.SearchExpr, f *indexedFile) bool {
	switch e.Kind {
	case ed2k.KindKeyword:
		return evalExpr(e, known, f, 0)
	case ed2k.KindAnd:
		return keywordsHold(e.Left, known, f) && keywordsHold(e.Right, known, f)
	}
	return true
}

// BenchmarkServerHandleInstrumentation measures what the observability
// layer costs on the Handle hot path: "off" is the baseline (counters
// and gauges only — those can't be turned off, Stats depends on them),
// "on" adds the wall-clock timing and per-opcode latency histograms the
// daemon runs with. scripts/bench_obs.sh records the pair to
// BENCH_obs.json and gates the delta at < 5%.
func BenchmarkServerHandleInstrumentation(b *testing.B) {
	const nFiles = 1 << 15
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			var reg *obs.Registry
			if mode == "on" {
				reg = obs.NewRegistry()
			}
			s, msgs := benchServerWith(1, nFiles, reg)
			mask := len(msgs) - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Handle(simtime.Time(i), ed2k.ClientID(1000+i%512), 4662, msgs[i&mask])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkServerHandleShardMatrix is the ROADMAP's shard-scaling
// matrix: a fixed set of shard counts, meant to be crossed with
// GOMAXPROCS via the -cpu flag —
//
//	go test -run '^$' -bench ShardMatrix -cpu 1,4,16 ./internal/server/
//
// On a 1-CPU host the -cpu axis still measures scheduling overhead
// (goroutines contending for one core), which is exactly the regime CI
// runs in; a recorded result needs the host CPU count beside it so
// readers can tell the two regimes apart.
func BenchmarkServerHandleShardMatrix(b *testing.B) {
	const nFiles = 1 << 15
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s, msgs := benchServer(shards, nFiles)
			mask := len(msgs) - 1
			var cursor atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(cursor.Add(1))
					s.Handle(simtime.Time(i), ed2k.ClientID(1000+i%512), 4662, msgs[i&mask])
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// shardCountForCPU mirrors the daemon's default: enough shards that
// every core can usually hold a different one.
func shardCountForCPU() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 16 {
		n = 16
	}
	return n
}

// BenchmarkExpireSources measures one sweep of a 16-shard index (the
// daemon's count up to 4 CPUs) holding files=n files of one source each,
// none of them due to expire: the sweep walks everything and changes
// nothing, so every iteration does the same work. Beside ns/op it
// reports ms/sweep and shard-ms, the longest a reader waited on one
// shard while the sweep ran. A prober goroutine takes each shard's read
// lock in turn, as a search does, and times the wait; it cycles through
// the shards in about a microsecond, so it meets the sweep near the
// start of each shard's walk and shard-ms is the longest walk of a
// single shard, to within that cycle. It needs a second CPU to run
// beside the sweep.
//
//	go test -run '^$' -bench '^BenchmarkExpireSources$' -benchtime 3x ./internal/server/
func BenchmarkExpireSources(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		var s *Server
		b.Run(fmt.Sprintf("files=%d", n), func(b *testing.B) {
			if s == nil {
				s, _ = benchServer(16, n)
			}
			runtime.GC() // the build's garbage, not the sweep's
			stop := make(chan struct{})
			waited := make(chan time.Duration)
			go func() {
				var longest time.Duration
				for {
					for _, sh := range s.shards {
						select {
						case <-stop:
							waited <- longest
							return
						default:
						}
						t0 := time.Now()
						sh.mu.RLock()
						longest = max(longest, time.Since(t0))
						sh.mu.RUnlock()
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ExpireSources(0)
			}
			b.StopTimer()
			close(stop)
			longest := <-waited
			if got := s.Stats().IndexedFiles; got != n {
				b.Fatalf("%d files after the sweep, want %d: it expired some", got, n)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/sweep")
			b.ReportMetric(longest.Seconds()*1e3, "shard-ms")
		})
	}
}
