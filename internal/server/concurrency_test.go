package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"edtrace/internal/ed2k"
	"edtrace/internal/simtime"
)

// TestConcurrentHandle hammers a sharded server from many goroutines
// mixing every opcode; run with -race this is the index's memory-model
// test. Totals are checked afterwards: no offer, ask or search may be
// lost to a data race.
func TestConcurrentHandle(t *testing.T) {
	s := NewShardedWith("t", "d", 8, nil)
	const (
		workers    = 16
		perWorker  = 200
		filesEach  = 5
		totalFiles = workers * perWorker * filesEach
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := ed2k.ClientID(1000 + w)
			for i := 0; i < perWorker; i++ {
				var files []ed2k.FileEntry
				for k := 0; k < filesEach; k++ {
					n := w*perWorker*filesEach + i*filesEach + k
					files = append(files, entry(byte(n), fmt.Sprintf("word%d file%d.mp3", n%97, n), uint32(n+1), "Audio"))
					files[k].ID[1] = byte(n >> 8)
					files[k].ID[2] = byte(n >> 16)
				}
				s.Handle(simtime.Time(i)*simtime.Second, from, 4662, offer(from, files...))
				s.Handle(simtime.Time(i)*simtime.Second, from, 4662,
					&ed2k.GetSources{Hashes: []ed2k.FileID{files[0].ID}})
				s.Handle(simtime.Time(i)*simtime.Second, from, 4662,
					&ed2k.SearchReq{Expr: ed2k.Keyword(fmt.Sprintf("word%d", i%97))})
				s.Handle(simtime.Time(i)*simtime.Second, from, 4662, &ed2k.StatReq{Challenge: uint32(i)})
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.IndexedFiles != totalFiles {
		t.Fatalf("indexed %d files, want %d", st.IndexedFiles, totalFiles)
	}
	if st.IndexedSources != totalFiles {
		t.Fatalf("indexed %d sources, want %d", st.IndexedSources, totalFiles)
	}
	if got := st.Received["OfferFiles"]; got != workers*perWorker {
		t.Fatalf("received %d offers, want %d", got, workers*perWorker)
	}
	if got := st.Received["StatReq"]; got != workers*perWorker {
		t.Fatalf("received %d stat reqs, want %d", got, workers*perWorker)
	}
	if s.Users() != workers {
		t.Fatalf("users = %d, want %d", s.Users(), workers)
	}
}

// TestExpireSourcesUnderConcurrentHandle runs the periodic expiry sweep
// while announcements and source queries are in flight — the daemon's
// steady state. The invariant: after the dust settles, the source gauge
// matches a full count of the surviving per-file source lists, and every
// source the sweeps could not have expired is still answerable.
func TestExpireSourcesUnderConcurrentHandle(t *testing.T) {
	s := NewShardedWith("t", "d", 4, nil)
	s.SourceTTL = simtime.Hour

	const (
		workers   = 8
		perWorker = 300
	)
	stop := make(chan struct{})
	var expiries sync.WaitGroup
	expiries.Add(1)
	go func() {
		defer expiries.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Sweep at a time that expires the "old" half of announcements
			// (t=0) but never the "fresh" half (t=2h).
			s.ExpireSources(simtime.Hour + simtime.Minute)
			_ = i
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := ed2k.ClientID(100 + w)
			for i := 0; i < perWorker; i++ {
				e := entry(byte(i), "steady state.mp3", 1, "Audio")
				e.ID[1] = byte(i >> 8)
				e.ID[2] = byte(w)
				// Half the announcements are already stale when a sweep at
				// t=1h+1m runs; half are fresh.
				at := simtime.Time(0)
				if i%2 == 1 {
					at = 2 * simtime.Hour
				}
				s.Handle(at, from, 4662, offer(from, e))
				s.Handle(2*simtime.Hour, from, 4662, &ed2k.GetSources{Hashes: []ed2k.FileID{e.ID}})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	expiries.Wait()

	// One final sweep with every announcement time in the past: only the
	// fresh half may survive.
	s.ExpireSources(simtime.Hour + simtime.Minute)
	st := s.Stats()
	want := workers * perWorker / 2
	if st.IndexedSources != want {
		t.Fatalf("sources after final sweep = %d, want %d", st.IndexedSources, want)
	}
	// The gauge must agree with what GetSources can actually see.
	visible := 0
	for w := 0; w < workers; w++ {
		for i := 1; i < perWorker; i += 2 {
			var fid ed2k.FileID
			fid[0] = byte(i)
			fid[15] = byte(i) ^ 0xFF
			fid[1] = byte(i >> 8)
			fid[2] = byte(w)
			ans := s.Handle(2*simtime.Hour, 9999, 1, &ed2k.GetSources{Hashes: []ed2k.FileID{fid}})
			for _, a := range ans {
				visible += len(a.(*ed2k.FoundSources).Sources)
			}
		}
	}
	if visible != want {
		t.Fatalf("answerable sources = %d, want %d", visible, want)
	}
}

// TestSearchRacesExpiryAndReannouncement searches while sweeps delete
// files and announcements bring the same files back — the case in which
// a search walks a posting list that is being outgrown and rebuilt under
// it. No answer may carry an expired file (a sources tag of 0) or one
// file twice; once everything has stopped and one more sweep has run,
// every posting points at the file the table holds under that ID and the
// keyword gauge is back to the number of tokens the live files have.
func TestSearchRacesExpiryAndReannouncement(t *testing.T) {
	s := NewShardedWith("t", "d", 8, nil)
	s.SourceTTL = simtime.Hour
	const (
		announcers = 4
		filesEach  = 32
		rounds     = 40
		sweepAt    = simtime.Hour + simtime.Minute
	)
	churn := func(w, i int) ed2k.FileEntry {
		e := entry(byte(i), fmt.Sprintf("churn word%d take%d.mp3", i%4, w*filesEach+i), 1, "Audio")
		e.ID[1] = byte(w)
		return e
	}

	stop := make(chan struct{})
	var background sync.WaitGroup
	background.Add(1)
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.ExpireSources(sweepAt)
			}
		}
	}()
	queries := []*ed2k.SearchExpr{
		ed2k.Keyword("churn"),
		ed2k.And(ed2k.Keyword("word1"), ed2k.Keyword("mp3")),
		ed2k.Or(ed2k.Keyword("word0"), ed2k.Keyword("churn")),
		ed2k.AndNot(ed2k.Keyword("mp3"), ed2k.Keyword("word2")),
	}
	var hits atomic.Uint64
	for g := 0; g < 4; g++ {
		background.Add(1)
		go func(g int) {
			defer background.Done()
			for q := g; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				expr := queries[q%len(queries)]
				res := s.Handle(sweepAt, ed2k.ClientID(500+g), 1, &ed2k.SearchReq{Expr: expr})[0].(*ed2k.SearchRes)
				seen := make(map[ed2k.FileID]bool)
				hits.Add(uint64(len(res.Results)))
				for _, hit := range res.Results {
					if seen[hit.ID] {
						t.Errorf("%s: file %x answered twice", expr, hit.ID[:2])
					}
					seen[hit.ID] = true
					if tag := hit.Tags[len(hit.Tags)-1]; tag.ID() != ed2k.FTSources || tag.Num == 0 {
						t.Errorf("%s: file %x answered with sources tag %+v", expr, hit.ID[:2], tag)
					}
				}
			}
		}(g)
	}

	var wg sync.WaitGroup
	for w := 0; w < announcers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := ed2k.ClientID(100 + w)
			for r := 0; r < rounds; r++ {
				for i := 0; i < filesEach; i++ {
					// Announced at t=0 a file is already stale for the sweep
					// and the next one deletes it; at t=2h it stays until a
					// later round announces it stale again.
					at := simtime.Time(0)
					if (r+i)%3 == 0 {
						at = 2 * simtime.Hour
					}
					s.Handle(at, from, 4662, offer(from, churn(w, i)))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	background.Wait()
	s.ExpireSources(sweepAt)
	if hits.Load() == 0 {
		t.Fatal("no search found a file: the race was not exercised")
	}

	tokens := make(map[string]bool)
	for _, sh := range s.shards {
		for _, idx := range sh.files {
			for _, kw := range Tokenize(idx.nameLower()) {
				tokens[kw] = true
			}
		}
	}
	lists, gauge := 0, int64(0)
	for _, sh := range s.shards {
		lists += len(sh.keywords)
		gauge += sh.gKeywords.Value()
		for kw, lst := range sh.keywords {
			if len(lst) == 0 {
				t.Errorf("posting list %q left empty", kw)
			}
			for _, p := range lst {
				f := p.f
				if s.fileShard(f.id).files[f.id] != f {
					t.Errorf("posting list %q holds a dead pointer to file %x", kw, f.id[:2])
				}
				if p.sig != nameSig(f.nameLower()) {
					t.Errorf("posting list %q holds a signature that is not file %x's", kw, f.id[:2])
				}
			}
		}
	}
	if lists != len(tokens) || gauge != int64(len(tokens)) {
		t.Fatalf("%d posting lists and edserver_index_keywords %d for %d live tokens", lists, gauge, len(tokens))
	}
}

// TestExpireReclaimsIndex pins the long-running-daemon guarantee: a
// file whose every source expired disappears entirely — from the file
// table, the keyword postings, and (for idle clients) the user table —
// and comes back cleanly when re-announced.
func TestExpireReclaimsIndex(t *testing.T) {
	s := NewShardedWith("t", "d", 4, nil)
	s.SourceTTL = simtime.Hour
	s.Handle(0, 1, 1, offer(1, entry(1, "vivaldi seasons.mp3", 1, "Audio")))
	s.Handle(3*simtime.Hour, 2, 2, offer(2, entry(2, "vivaldi concerto.mp3", 1, "Audio")))

	s.ExpireSources(3 * simtime.Hour)
	st := s.Stats()
	if st.IndexedFiles != 1 || st.IndexedSources != 1 {
		t.Fatalf("after expiry: %+v", st)
	}
	if st.Users != 1 { // client 1 (last seen t=0) is idle past the TTL
		t.Fatalf("users after expiry: %d", st.Users)
	}
	// The dead file is gone from the shared keyword's posting list: a
	// search only finds the survivor, and the dedicated keyword of the
	// dead file finds nothing.
	ans := s.Handle(3*simtime.Hour, 9, 9, &ed2k.SearchReq{Expr: ed2k.Keyword("vivaldi")})
	if res := ans[0].(*ed2k.SearchRes); len(res.Results) != 1 || res.Results[0].ID != entry(2, "", 0, "").ID {
		t.Fatalf("post-expiry search: %+v", res.Results)
	}
	ans = s.Handle(3*simtime.Hour, 9, 9, &ed2k.SearchReq{Expr: ed2k.Keyword("seasons")})
	if res := ans[0].(*ed2k.SearchRes); len(res.Results) != 0 {
		t.Fatalf("dead file still searchable: %+v", res.Results)
	}
	// Re-announcing resurrects the file, searchable again.
	s.Handle(4*simtime.Hour, 1, 1, offer(1, entry(1, "vivaldi seasons.mp3", 1, "Audio")))
	ans = s.Handle(4*simtime.Hour, 9, 9, &ed2k.SearchReq{Expr: ed2k.Keyword("seasons")})
	if res := ans[0].(*ed2k.SearchRes); len(res.Results) != 1 {
		t.Fatalf("re-announced file not searchable: %+v", res.Results)
	}
	// Empty posting lists were deleted, not left as zombie slices.
	total := 0
	for _, sh := range s.shards {
		total += len(sh.keywords)
	}
	// vivaldi, seasons, mp3 (shared), concerto — exactly 4 live keywords.
	if total != 4 {
		t.Fatalf("keyword table holds %d entries, want 4", total)
	}
}

// TestSweepRebuildsListAtLiveSize: a sweep that strips k of a keyword
// list's n postings replaces the list with one of exactly n-k postings,
// not with a copy of all n trimmed, and leaves a list with no dead
// posting as it was.
func TestSweepRebuildsListAtLiveSize(t *testing.T) {
	const n, k = 40, 13
	s := New("t", "d")
	s.SourceTTL = simtime.Hour
	for i := 0; i < n; i++ {
		at := 2 * simtime.Hour
		if i%3 == 0 && i/3 < k { // the k files the sweep finds stale
			at = 0
		}
		from := ed2k.ClientID(100 + i)
		s.Handle(at, from, 1, offer(from, entry(byte(i), fmt.Sprintf("common take%d.mp3", i), 1, "Audio")))
	}
	kw := s.shards[0].keywords
	if got := len(kw["common"]); got != n {
		t.Fatalf("%d postings before the sweep, want %d", got, n)
	}
	take1 := kw["take1"] // a live file's own list
	s.ExpireSources(2 * simtime.Hour)
	if lst := kw["common"]; len(lst) != n-k || cap(lst) != n-k {
		t.Fatalf("after stripping %d of %d postings: len %d, cap %d, want both %d", k, n, len(lst), cap(lst), n-k)
	}
	if lst := kw["take1"]; &lst[0] != &take1[0] {
		t.Fatal("a list with no dead posting was rebuilt")
	}
}

// TestShardRoutingDeterministic pins the property concurrency relies on:
// the same key always lands on the same shard, whatever the caller.
func TestShardRoutingDeterministic(t *testing.T) {
	s := NewShardedWith("t", "d", 16, nil)
	if s.NumShards() != 16 {
		t.Fatalf("shards = %d", s.NumShards())
	}
	var fid ed2k.FileID
	fid[3] = 7
	if s.fileShard(fid) != s.fileShard(fid) {
		t.Fatal("fileShard not deterministic")
	}
	if s.kwShard("mozart") != s.kwShard("mozart") {
		t.Fatal("kwShard not deterministic")
	}
	if s.userShard(42) != s.userShard(42) {
		t.Fatal("userShard not deterministic")
	}
}

// TestNewShardedRounding documents NewShardedWith's power-of-two rounding.
func TestNewShardedRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewShardedWith("t", "d", c.in, nil).NumShards(); got != c.want {
			t.Errorf("NewShardedWith(%d) = %d shards, want %d", c.in, got, c.want)
		}
	}
}

// TestShardedMatchesSingleShard drives the same deterministic workload
// through a 1-shard and an 8-shard server sequentially and requires
// identical observable behaviour — sharding is a locking strategy, not a
// semantic change.
func TestShardedMatchesSingleShard(t *testing.T) {
	run := func(s *Server) []ed2k.Message {
		var out []ed2k.Message
		for i := 0; i < 50; i++ {
			e := entry(byte(i), fmt.Sprintf("shared word%d.mp3", i%7), uint32(i+1), "Audio")
			out = append(out, s.Handle(0, ed2k.ClientID(1+i%5), 4662, offer(ed2k.ClientID(1+i%5), e))...)
		}
		for i := 0; i < 7; i++ {
			word := ed2k.Keyword(fmt.Sprintf("word%d", i))
			for _, expr := range []*ed2k.SearchExpr{
				word,
				ed2k.And(ed2k.Keyword("shared"), word),
				ed2k.And(ed2k.And(word, ed2k.Keyword("mp3")), ed2k.SizeAtLeast(uint32(10+i))),
				ed2k.And(ed2k.TypeIs("audio"), ed2k.And(word, ed2k.SizeAtMost(uint32(40-i)))),
				ed2k.AndNot(ed2k.Keyword("shared"), word),
				ed2k.Or(word, ed2k.Keyword(fmt.Sprintf("word%d", (i+3)%7))),
			} {
				out = append(out, s.Handle(0, 99, 1, &ed2k.SearchReq{Expr: expr})...)
			}
		}
		for i := 0; i < 50; i++ {
			var fid ed2k.FileID
			fid[0] = byte(i)
			fid[15] = byte(i) ^ 0xFF
			out = append(out, s.Handle(0, 7, 1, &ed2k.GetSources{Hashes: []ed2k.FileID{fid}})...)
		}
		return out
	}
	a := run(NewShardedWith("t", "d", 1, nil))
	b := run(NewShardedWith("t", "d", 8, nil))
	if len(a) != len(b) {
		t.Fatalf("answer counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if fmt.Sprintf("%#v", a[i]) != fmt.Sprintf("%#v", b[i]) {
			t.Errorf("answer %d differs:\n 1 shard: %#v\n 8 shards: %#v", i, a[i], b[i])
		}
	}
}
