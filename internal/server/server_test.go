package server

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
)

func entry(id byte, name string, size uint32, typ string) ed2k.FileEntry {
	var fid ed2k.FileID
	fid[0] = id
	fid[15] = id ^ 0xFF
	return ed2k.FileEntry{
		ID: fid,
		Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, name),
			ed2k.UintTag(ed2k.FTFileSize, size),
			ed2k.StringTag(ed2k.FTFileType, typ),
		},
	}
}

func offer(from ed2k.ClientID, files ...ed2k.FileEntry) *ed2k.OfferFiles {
	return &ed2k.OfferFiles{Client: from, Port: 4662, Files: files}
}

func TestOfferIndexesAndAcks(t *testing.T) {
	s := New("test", "a test server")
	ans := s.Handle(0, 100, 4662, offer(100, entry(1, "mozart requiem.mp3", 5<<20, "Audio")))
	if len(ans) != 1 {
		t.Fatalf("got %d answers", len(ans))
	}
	ack, ok := ans[0].(*ed2k.OfferAck)
	if !ok || ack.Accepted != 1 {
		t.Fatalf("answer = %#v", ans[0])
	}
	st := s.Stats()
	if st.IndexedFiles != 1 || st.IndexedSources != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Same file from another client adds a source, not a file.
	s.Handle(0, 200, 4662, offer(200, entry(1, "mozart requiem.mp3", 5<<20, "Audio")))
	st = s.Stats()
	if st.IndexedFiles != 1 || st.IndexedSources != 2 {
		t.Fatalf("after second offer: %+v", st)
	}
	// Re-announce by the same client does not duplicate the source.
	s.Handle(simtime.Minute, 100, 4662, offer(100, entry(1, "mozart requiem.mp3", 5<<20, "Audio")))
	if st := s.Stats(); st.IndexedSources != 2 {
		t.Fatalf("re-announce duplicated a source: %+v", st)
	}
}

func TestGetSourcesAnswersPerHash(t *testing.T) {
	s := New("t", "d")
	s.Handle(0, 1, 1, offer(1, entry(1, "a b.mp3", 1000, "Audio"), entry(2, "c d.mp3", 2000, "Audio")))
	s.Handle(0, 2, 2, offer(2, entry(1, "a b.mp3", 1000, "Audio")))

	var unknown ed2k.FileID
	unknown[0] = 99
	req := &ed2k.GetSources{Hashes: []ed2k.FileID{entry(1, "", 0, "").ID, unknown, entry(2, "", 0, "").ID}}
	ans := s.Handle(0, 3, 3, req)
	if len(ans) != 2 { // unknown hash is silently dropped
		t.Fatalf("got %d answers, want 2", len(ans))
	}
	fs := ans[0].(*ed2k.FoundSources)
	if fs.Hash != entry(1, "", 0, "").ID || len(fs.Sources) != 2 {
		t.Fatalf("first answer: %+v", fs)
	}
	ids := []ed2k.ClientID{fs.Sources[0].ID, fs.Sources[1].ID}
	if !reflect.DeepEqual(ids, []ed2k.ClientID{1, 2}) {
		t.Fatalf("sources: %v", ids)
	}
}

func TestSourceLimitPerAnswer(t *testing.T) {
	s := New("t", "d")
	for i := 0; i < MaxSourcesPerAnswer+20; i++ {
		s.Handle(0, ed2k.ClientID(1000+i), 4662, offer(ed2k.ClientID(1000+i), entry(1, "x y.mp3", 1, "Audio")))
	}
	ans := s.Handle(0, 5, 5, &ed2k.GetSources{Hashes: []ed2k.FileID{entry(1, "", 0, "").ID}})
	fs := ans[0].(*ed2k.FoundSources)
	if len(fs.Sources) != MaxSourcesPerAnswer {
		t.Fatalf("answer carries %d sources, want %d", len(fs.Sources), MaxSourcesPerAnswer)
	}
}

func TestSourceTTLExpiry(t *testing.T) {
	s := New("t", "d")
	s.SourceTTL = simtime.Hour
	s.Handle(0, 1, 1, offer(1, entry(1, "a b.mp3", 1, "Audio")))
	s.Handle(30*simtime.Minute, 2, 2, offer(2, entry(1, "a b.mp3", 1, "Audio")))

	// At t=90min, client 1's announcement (t=0) is stale.
	ans := s.Handle(90*simtime.Minute, 9, 9, &ed2k.GetSources{Hashes: []ed2k.FileID{entry(1, "", 0, "").ID}})
	fs := ans[0].(*ed2k.FoundSources)
	if len(fs.Sources) != 1 || fs.Sources[0].ID != 2 {
		t.Fatalf("sources after TTL: %+v", fs.Sources)
	}
	// ExpireSources reclaims the table.
	s.ExpireSources(90 * simtime.Minute)
	if st := s.Stats(); st.IndexedSources != 1 {
		t.Fatalf("expire kept %d sources", st.IndexedSources)
	}
}

func TestSearchByKeywordAndConstraints(t *testing.T) {
	s := New("t", "d")
	s.Handle(0, 1, 1, offer(1,
		entry(1, "mozart requiem.mp3", 5<<20, "Audio"),
		entry(2, "mozart symphony.avi", 700<<20, "Video"),
		entry(3, "beethoven ninth.mp3", 6<<20, "Audio"),
	))
	search := func(e *ed2k.SearchExpr) *ed2k.SearchRes {
		t.Helper()
		ans := s.Handle(0, 7, 7, &ed2k.SearchReq{Expr: e})
		if len(ans) != 1 {
			t.Fatalf("got %d answers", len(ans))
		}
		return ans[0].(*ed2k.SearchRes)
	}

	res := search(ed2k.Keyword("mozart"))
	if len(res.Results) != 2 {
		t.Fatalf("mozart results: %d", len(res.Results))
	}
	res = search(ed2k.And(ed2k.Keyword("mozart"), ed2k.TypeIs("Audio")))
	if len(res.Results) != 1 {
		t.Fatalf("mozart+audio results: %d", len(res.Results))
	}
	if name, _ := res.Results[0].Name(); name != "mozart requiem.mp3" {
		t.Fatalf("wrong match: %s", name)
	}
	res = search(ed2k.And(ed2k.Keyword("mozart"), ed2k.SizeAtLeast(100<<20)))
	if len(res.Results) != 1 {
		t.Fatalf("mozart+big results: %d", len(res.Results))
	}
	res = search(ed2k.Keyword("absentword"))
	if len(res.Results) != 0 {
		t.Fatalf("absent keyword matched %d", len(res.Results))
	}
	// Results carry a sources-count tag.
	res = search(ed2k.Keyword("beethoven"))
	found := false
	for _, tag := range res.Results[0].Tags {
		if tag.ID() == ed2k.FTSources && tag.Type == ed2k.TagUint32 {
			found = true
			if tag.Num != 1 {
				t.Fatalf("sources tag = %d", tag.Num)
			}
		}
	}
	if !found {
		t.Fatal("no sources tag in search result")
	}
}

func TestSearchResultLimit(t *testing.T) {
	s := New("t", "d")
	for i := 0; i < MaxSearchResults+30; i++ {
		e := entry(byte(i), "common word.mp3", 1000, "Audio")
		e.ID[1] = byte(i >> 8)
		e.ID[2] = byte(i)
		s.Handle(0, ed2k.ClientID(100+i), 1, offer(ed2k.ClientID(100+i), e))
	}
	ans := s.Handle(0, 7, 7, &ed2k.SearchReq{Expr: ed2k.Keyword("common")})
	res := ans[0].(*ed2k.SearchRes)
	if len(res.Results) != MaxSearchResults {
		t.Fatalf("results = %d, want %d", len(res.Results), MaxSearchResults)
	}
}

func TestStatAndManagement(t *testing.T) {
	s := New("big one", "ten weeks")
	s.Handle(0, 1, 1, offer(1, entry(1, "a b.mp3", 1, "Audio")))

	ans := s.Handle(0, 2, 2, &ed2k.StatReq{Challenge: 77})
	sr := ans[0].(*ed2k.StatRes)
	if sr.Challenge != 77 || sr.Files != 1 || sr.Users != 2 {
		t.Fatalf("stat: %+v", sr)
	}

	ans = s.Handle(0, 3, 3, ed2k.GetServerList{})
	sl := ans[0].(*ed2k.ServerList)
	if len(sl.Servers) != 0 {
		t.Fatalf("serverlist: %+v", sl)
	}

	ans = s.Handle(0, 4, 4, ed2k.ServerDescReq{})
	desc := ans[0].(*ed2k.ServerDescRes)
	if desc.Name != "big one" || desc.Desc != "ten weeks" {
		t.Fatalf("desc: %+v", desc)
	}

	if s.Users() != 4 {
		t.Fatalf("users = %d", s.Users())
	}
	st := s.Stats()
	if st.Received["OfferFiles"] != 1 || st.Received["StatReq"] != 1 {
		t.Fatalf("received: %v", st.Received)
	}
	if st.Answered["StatRes"] != 1 || st.Answered["ServerList"] != 1 {
		t.Fatalf("answered: %v", st.Answered)
	}
}

func TestServerIgnoresAnswers(t *testing.T) {
	s := New("t", "d")
	if ans := s.Handle(0, 1, 1, &ed2k.StatRes{}); ans != nil {
		t.Fatalf("server answered an answer: %v", ans)
	}
}

func TestEvalExprMatchesSpec(t *testing.T) {
	// The server's cached-metadata evaluator must agree with the protocol
	// reference implementation (ed2k.SearchExpr.Matches) on keyword,
	// type and size shapes.
	e := entry(1, "Mozart Requiem LIVE.mp3", 5<<20, "Audio")
	idx := newIndexedFile(&e, 1, 1)
	exprs := []*ed2k.SearchExpr{
		ed2k.Keyword("MOZART"),
		ed2k.Keyword("requiem"),
		ed2k.Keyword("nope"),
		ed2k.TypeIs("AUDIO"),
		ed2k.TypeIs("Video"),
		ed2k.SizeAtLeast(1 << 20),
		ed2k.SizeAtMost(1 << 20),
		ed2k.And(ed2k.Keyword("mozart"), ed2k.TypeIs("audio")),
		ed2k.Or(ed2k.Keyword("nope"), ed2k.SizeAtLeast(1)),
		ed2k.AndNot(ed2k.Keyword("mozart"), ed2k.Keyword("live")),
	}
	for _, ex := range exprs {
		want := ex.Matches(&e)
		got := evalExpr(lowerExpr(ex, new([]ed2k.SearchExpr)), nil, idx, 1)
		if got != want {
			t.Errorf("%s: evalExpr=%v, spec=%v", ex, got, want)
		}
	}
}

// tokenizeRef is Tokenize as it was before it counted and lowered in one
// copy: each token lowered on its own, the result grown token by token.
func tokenizeRef(name string) []string {
	var out []string
	start := -1
	flush := func(end int) {
		if start >= 0 && end-start >= 2 {
			out = append(out, strings.ToLower(name[start:end]))
		}
		start = -1
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if alnum {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(name))
	return out
}

// TestTokenizeMatchesReference: on names whose lowering changes their byte
// length (a Latin-1 name, as eDonkey clients send them, the dotted capital
// I, the Kelvin sign), on ASCII, on mixed case, and on random bytes,
// Tokenize gives the reference's tokens in at most two allocations.
func TestTokenizeMatchesReference(t *testing.T) {
	names := []string{
		"Caf\xe9 Mix.mp3", "\u0130stanbul \u0130Z ab", "200\u212a Kelvin\u212aK.avi", "mozart requiem.mp3",
		"Hello WORLD", "A_B-C  d", "", "x", "ab", "AB", "MiXeD_CaSe-42.iso", "..--..",
	}
	r := randx.New(44, 44)
	alphabet := []byte("aZ9_ .\x80\xc4\xb0\xe2\x84\xaaqQ")
	for range 2000 {
		b := make([]byte, r.IntN(40))
		for i := range b {
			if r.IntN(2) == 0 {
				b[i] = byte(r.IntN(256))
			} else {
				b[i] = alphabet[r.IntN(len(alphabet))]
			}
		}
		names = append(names, string(b))
	}
	for _, name := range names {
		if got, want := Tokenize(name), tokenizeRef(name); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", name, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { Tokenize(name) }); allocs > 2 {
			t.Fatalf("Tokenize(%q): %v allocations, want at most 2", name, allocs)
		}
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"mozart requiem.mp3", []string{"mozart", "requiem", "mp3"}},
		{"A_B-C  d", []string{}}, // all fragments shorter than 2
		{"Hello WORLD", []string{"hello", "world"}},
		{"x42 7z", []string{"x42", "7z"}},
		{"", []string{}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
