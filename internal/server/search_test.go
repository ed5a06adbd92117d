package server

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
)

// refIndex is the naive reference the index is compared against: every
// announced file in one flat slice, in announcement order, searched with
// the protocol's own evaluator (ed2k.SearchExpr.Matches) under the
// documented candidate rule and bounds. It models no expiry, so a
// keyword's posting list is simply the first MaxPostingList files that
// hold the token. It keeps a file's tags by the index's rule (refTags).
type refIndex struct {
	files []*refFile
	byID  map[ed2k.FileID]*refFile
}

type refFile struct {
	entry   ed2k.FileEntry // the first announcement, with its announcer
	tokens  []string
	sources []ed2k.ClientID
}

// offerFunc announces files from one client.
type offerFunc func(from ed2k.ClientID, port uint16, files ...ed2k.FileEntry)

// newRefAndServers returns an empty reference, servers of the given shard
// counts, and the offerFunc that announces to all of them alike.
func newRefAndServers(shards ...int) (*refIndex, []*Server, offerFunc) {
	ref := &refIndex{byID: make(map[ed2k.FileID]*refFile)}
	var servers []*Server
	for _, n := range shards {
		servers = append(servers, NewShardedWith("t", "d", n, nil))
	}
	return ref, servers, func(from ed2k.ClientID, port uint16, files ...ed2k.FileEntry) {
		ref.offer(from, port, files...)
		for _, s := range servers {
			s.Handle(0, from, port, &ed2k.OfferFiles{Client: from, Port: port, Files: files})
		}
	}
}

// sameAsReference fails t unless every server answers expr as ref does,
// byte for byte, and returns that answer. With bufs, server i answers
// through bufs[i], which the caller reuses from call to call; without,
// through Handle.
func sameAsReference(t *testing.T, ref *refIndex, servers []*Server, bufs []Answers, expr *ed2k.SearchExpr) *ed2k.SearchRes {
	t.Helper()
	wantRes := ref.search(expr)
	want := ed2k.Encode(wantRes)
	for i, s := range servers {
		var ans []ed2k.Message
		if bufs != nil {
			ans = s.HandleInto(&bufs[i], 0, 7, 7, &ed2k.SearchReq{Expr: expr})
		} else {
			ans = s.Handle(0, 7, 7, &ed2k.SearchReq{Expr: expr})
		}
		if len(ans) != 1 {
			t.Fatalf("%s: %d answers", expr, len(ans))
		}
		if got := ed2k.Encode(ans[0]); !bytes.Equal(got, want) {
			t.Fatalf("%s at %d shards:\n got %+v\nwant %+v", expr, s.NumShards(), ans[0], wantRes)
		}
	}
	return wantRes
}

func (r *refIndex) offer(from ed2k.ClientID, port uint16, files ...ed2k.FileEntry) {
	for _, f := range files {
		rf := r.byID[f.ID]
		if rf == nil {
			rf = &refFile{entry: f}
			rf.entry.Client, rf.entry.Port = from, port
			rf.entry.Tags = refTags(f.Tags)
			if name, ok := rf.entry.Name(); ok {
				rf.tokens = Tokenize(name)
			}
			r.byID[f.ID] = rf
			r.files = append(r.files, rf)
		}
		if !slices.Contains(rf.sources, from) {
			rf.sources = append(rf.sources, from)
		}
	}
}

// refTags is the index's tag rule, measured with the encoder: the longest
// prefix of tags, fewer than MaxTagsPerFile, with which a SearchRes of
// MaxSearchResults such files, each with its sources tag, is one TCP
// frame.
func refTags(tags []ed2k.Tag) []ed2k.Tag {
	for n := min(len(tags), ed2k.MaxTagsPerFile-1); ; n-- {
		hit := ed2k.FileEntry{Tags: append(slices.Clone(tags[:n]), ed2k.UintTag(ed2k.FTSources, 0))}
		full := &ed2k.SearchRes{Results: slices.Repeat([]ed2k.FileEntry{hit}, MaxSearchResults)}
		if len(ed2k.FrameTCP(full))-5 <= ed2k.MaxTCPFrame {
			return tags[:n]
		}
	}
}

// postings lists the files indexed under the token kw; ok is false when
// there are none.
func (r *refIndex) postings(kw string) (lst []*refFile, ok bool) {
	for _, f := range r.files {
		if slices.Contains(f.tokens, kw) {
			if lst = append(lst, f); len(lst) == MaxPostingList {
				break
			}
		}
	}
	return lst, len(lst) > 0
}

// cover names the keywords whose posting lists supply a search's
// candidates, by the rule Server.cover documents.
func (r *refIndex) cover(e *ed2k.SearchExpr) (kws []string, cost int, ok bool) {
	switch e.Kind {
	case ed2k.KindKeyword:
		kw := strings.ToLower(e.Word)
		lst, ok := r.postings(kw)
		return []string{kw}, len(lst), ok
	case ed2k.KindAnd:
		lk, lc, lok := r.cover(e.Left)
		rk, rc, rok := r.cover(e.Right)
		if lok && (!rok || lc <= rc) {
			return lk, lc, true
		}
		return rk, rc, rok
	case ed2k.KindNot:
		return r.cover(e.Left)
	case ed2k.KindOr:
		lk, lc, lok := r.cover(e.Left)
		rk, rc, rok := r.cover(e.Right)
		return append(lk, rk...), lc + rc, lok && rok
	}
	return nil, 0, false
}

// parentCover is the candidate rule before candidates followed the tree:
// the rarest keyword anywhere in the expression, the leftmost on a tie,
// absent ones skipped. On a tree of ANDs the two rules must agree.
func (r *refIndex) parentCover(e *ed2k.SearchExpr) (kw string, ok bool) {
	bestLen := 0
	for _, w := range e.Keywords(nil) {
		w = strings.ToLower(w)
		lst, present := r.postings(w)
		if present && (!ok || len(lst) < bestLen) {
			kw, bestLen, ok = w, len(lst), true
		}
	}
	return kw, ok
}

func (r *refIndex) search(e *ed2k.SearchExpr) *ed2k.SearchRes {
	res := &ed2k.SearchRes{}
	kws, _, ok := r.cover(e)
	if !ok {
		return res
	}
	scanned := 0
	for _, kw := range kws {
		lst, _ := r.postings(kw)
		for _, f := range lst {
			if scanned == MaxCandidates || len(res.Results) == MaxSearchResults {
				return res
			}
			scanned++
			hit := f.entry
			hit.Tags = append(slices.Clone(hit.Tags), ed2k.UintTag(ed2k.FTSources, uint32(len(f.sources))))
			if e.Matches(&hit) && !slices.ContainsFunc(res.Results, func(have ed2k.FileEntry) bool { return have.ID == hit.ID }) {
				res.Results = append(res.Results, hit)
			}
		}
	}
	return res
}

// repeatTokenPct is how many names in a hundred repeat one of their
// words ("live live.mp3").
const repeatTokenPct = 10

// searchVocab shares, repeats and nests tokens: "moz" and "art" are
// tokens of their own and substrings of "mozart", "cd" of "cd1" of
// "cd12". Earlier words are drawn more often.
var searchVocab = []string{
	"mp3", "the", "live", "mozart", "cd", "best", "rock", "of", "art", "moz",
	"alive", "cd1", "requiem", "symphony", "rocky", "liver", "beethoven", "cd12",
	"2007", "07", "x264", "ninth", "vivaldi", "seasons", "concerto", "remix",
}

func pickWord(r *randx.Rand) string {
	u := r.Float64()
	return searchVocab[int(u*u*float64(len(searchVocab)))]
}

func randCase(r *randx.Rand, w string) string {
	switch r.IntN(3) {
	case 0:
		return strings.ToUpper(w)
	case 1:
		return strings.ToUpper(w[:1]) + w[1:]
	}
	return w
}

// searchCatalog announces a seeded random catalog to every offer
// function, identically: nFiles files in batches from 64 clients, a
// quarter of the batches re-announcing an indexed file from another
// client under another name (the first announcement's metadata stays).
func searchCatalog(seed uint64, nFiles int, offer offerFunc) {
	r := randx.New(seed, 16)
	seps := []string{" ", "_", "-", ".", " (", ") "}
	exts := []string{".mp3", ".mp3", ".mp3", ".avi", ".iso", ""}
	types := []string{"Audio", "Audio", "Video", "Pro", ""}
	newEntry := func(n int) ed2k.FileEntry {
		var e ed2k.FileEntry
		e.ID[0], e.ID[1], e.ID[2], e.ID[9] = byte(n), byte(n>>8), byte(n>>16), byte(r.Uint32())
		if !r.Bool(0.02) { // a few files carry no name at all
			var name strings.Builder
			words := 1 + r.IntN(4)
			for w := 0; w < words; w++ {
				if w > 0 {
					name.WriteString(seps[r.IntN(len(seps))])
				}
				word := randCase(r, pickWord(r))
				name.WriteString(word)
				if r.IntN(100) < repeatTokenPct {
					name.WriteString(" " + word)
				}
			}
			name.WriteString(exts[r.IntN(len(exts))])
			e.Tags = append(e.Tags, ed2k.StringTag(ed2k.FTFileName, name.String()))
		}
		if !r.Bool(0.1) {
			e.Tags = append(e.Tags, ed2k.UintTag(ed2k.FTFileSize, uint32(r.IntN(1<<30))))
		}
		if typ := types[r.IntN(len(types))]; typ != "" {
			e.Tags = append(e.Tags, ed2k.StringTag(ed2k.FTFileType, randCase(r, typ)))
		}
		return e
	}
	var known []ed2k.FileID
	for len(known) < nFiles {
		from := ed2k.ClientID(1000 + r.IntN(64))
		var batch []ed2k.FileEntry
		for k := 1 + r.IntN(5); k > 0; k-- {
			e := newEntry(len(known))
			if len(known) > 0 && r.Bool(0.25) {
				e.ID = known[r.IntN(len(known))]
			} else {
				known = append(known, e.ID)
			}
			batch = append(batch, e)
		}
		offer(from, 4662, batch...)
	}
}

func randLeaf(r *randx.Rand) *ed2k.SearchExpr {
	switch n := r.IntN(100); {
	case n < 55:
		return ed2k.Keyword(randCase(r, pickWord(r)))
	case n < 62: // a substring of names that is no file's token
		return ed2k.Keyword([]string{"ozar", "ymphon", "eethove", "p3", "iv"}[r.IntN(5)])
	case n < 66:
		return ed2k.Keyword("absentword")
	case n < 74:
		return ed2k.SizeAtLeast(uint32(r.IntN(1 << 30)))
	case n < 82:
		return ed2k.SizeAtMost(uint32(r.IntN(1 << 30)))
	case n < 92:
		return ed2k.TypeIs(randCase(r, []string{"audio", "video", "pro", "image"}[r.IntN(4)]))
	case n < 98:
		return &ed2k.SearchExpr{Kind: ed2k.KindMetaNum, Meta: ed2k.MetaNameAvail,
			NumOp: byte(ed2k.NumericMin + r.IntN(2)), Value: uint32(1 + r.IntN(3))}
	}
	return &ed2k.SearchExpr{Kind: ed2k.KindMetaNum, Meta: 0x77, NumOp: ed2k.NumericMin} // unknown meta
}

func randExpr(r *randx.Rand, depth int, andOnly bool) *ed2k.SearchExpr {
	if depth == 0 || r.Bool(0.3) {
		return randLeaf(r)
	}
	left, right := randExpr(r, depth-1, andOnly), randExpr(r, depth-1, andOnly)
	switch {
	case andOnly || r.Bool(0.4):
		return ed2k.And(left, right)
	case r.Bool(0.5):
		return ed2k.Or(left, right)
	}
	return ed2k.AndNot(left, right)
}

// TestSearchMatchesReference offers one seeded catalog to 1-, 8- and
// 16-shard servers and to the naive reference, and requires every
// answer to a random query to be the reference's, byte for byte. "and"
// asks only ANDs of keywords and constraints — the queries whose
// candidate list is also what it was before candidates followed the
// tree — and "tree" any AND / OR / ANDNOT tree.
func TestSearchMatchesReference(t *testing.T) {
	ref, servers, offerAll := newRefAndServers(1, 8, 16)
	searchCatalog(7, 6000, offerAll)
	if lst, _ := ref.postings("mp3"); len(lst) != MaxPostingList {
		t.Fatalf("catalog's commonest token has %d postings, want the MaxPostingList bound", len(lst))
	}

	for _, mode := range []string{"and", "tree"} {
		t.Run(mode, func(t *testing.T) {
			r := randx.New(7, uint64(len(mode)))
			hits, full := 0, 0
			for q := 0; q < 400; q++ {
				expr := randExpr(r, 3, mode == "and")
				if mode == "and" {
					kws, _, ok := ref.cover(expr)
					if pkw, pok := ref.parentCover(expr); ok != pok || ok && !slices.Equal(kws, []string{pkw}) {
						t.Fatalf("%s: cover %v (%v), the rarest-keyword rule picks %q (%v)", expr, kws, ok, pkw, pok)
					}
				}
				if n := len(sameAsReference(t, ref, servers, nil, expr).Results); n > 0 {
					hits++
					if n == MaxSearchResults {
						full++
					}
				}
			}
			if hits < 100 || full < 20 {
				t.Fatalf("only %d of 400 queries had hits and %d a full answer: the generator no longer exercises the index", hits, full)
			}
		})
	}
}

// TestSearchCandidatesFollowTheTree pins the candidate rule on the four
// files the bug was reported with: the rarer word of an ANDNOT's right
// side or of one side of an OR must not supply the candidates.
func TestSearchCandidatesFollowTheTree(t *testing.T) {
	s := New("t", "d")
	s.Handle(0, 1, 1, offer(1,
		entry(1, "mozart requiem.mp3", 5<<20, "Audio"),
		entry(2, "mozart symphony.avi", 700<<20, "Video"),
		entry(3, "mozart concerto.mp3", 6<<20, "Audio"),
		entry(4, "beethoven ninth.mp3", 6<<20, "Audio"),
	))
	for _, c := range []struct {
		expr *ed2k.SearchExpr
		want []byte // first ID byte of each expected result, in order
	}{
		{ed2k.AndNot(ed2k.Keyword("mozart"), ed2k.Keyword("requiem")), []byte{2, 3}},
		{ed2k.Or(ed2k.Keyword("requiem"), ed2k.Keyword("symphony")), []byte{1, 2}},
		{ed2k.Or(ed2k.Keyword("mozart"), ed2k.Keyword("beethoven")), []byte{1, 2, 3, 4}},
		{ed2k.Or(ed2k.Keyword("mozart"), ed2k.Keyword("requiem")), []byte{1, 2, 3}}, // file 1 is in both lists, answered once
		{ed2k.And(ed2k.Keyword("mp3"), ed2k.Or(ed2k.Keyword("ninth"), ed2k.Keyword("concerto"))), []byte{4, 3}},
		{ed2k.Or(ed2k.Keyword("mozart"), ed2k.SizeAtLeast(1)), nil},        // a constraint has no list to scan
		{ed2k.Or(ed2k.Keyword("mozart"), ed2k.Keyword("absentword")), nil}, // nor has a word that is no token
		{ed2k.AndNot(ed2k.TypeIs("Audio"), ed2k.Keyword("requiem")), nil},  // the right side never supplies candidates
		{ed2k.And(ed2k.Keyword("oven"), ed2k.Keyword("ninth")), []byte{4}}, // a substring defers to the other side
		{ed2k.And(ed2k.SizeAtMost(6<<20), ed2k.Keyword("mp3")), []byte{1, 3, 4}},
	} {
		res := s.Handle(0, 7, 7, &ed2k.SearchReq{Expr: c.expr})[0].(*ed2k.SearchRes)
		var got []byte
		for _, e := range res.Results {
			got = append(got, e.ID[0])
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: results %v, want %v", c.expr, got, c.want)
		}
	}
}

// TestRepeatedTokenIndexedOnce: a name that repeats a word takes one
// slot of that word's posting list, not two.
func TestRepeatedTokenIndexedOnce(t *testing.T) {
	s := New("t", "d")
	s.Handle(0, 1, 1, offer(1, entry(1, "live LIVE live.mp3", 1, "Audio"), entry(2, "live.mp3", 1, "Audio")))
	if lst := s.kwShard("live").keywords["live"]; len(lst) != 2 {
		t.Fatalf("posting list of a repeated token holds %d entries, want 2", len(lst))
	}
}

// fuzzSearchFiles is FuzzSearchMatchesReference's small fixed index.
func fuzzSearchFiles(offer offerFunc) {
	offer(1, 4662,
		entry(1, "Mozart Requiem LIVE.mp3", 5<<20, "Audio"),
		entry(2, "mozart symphony.avi", 700<<20, "Video"),
		entry(3, "beethoven ninth live live.mp3", 6<<20, "Audio"),
	)
	offer(2, 4662,
		entry(2, "renamed.avi", 1, "Video"),
		entry(4, "the best of rock cd1.iso", 650<<20, "Pro"),
		entry(5, "alive.mp3", 3<<20, ""),
	)
	offer(3, 4662, entry(1, "mozart requiem live.mp3", 5<<20, "Audio"), entry(2, "x", 1, ""))
	// Names with every byte pair of a word they do not contain: a search
	// that takes them as candidates passes the signature and fails the
	// keyword test (see signaturePassSeeds).
	offer(4, 4662, entry(6, "liv ive.mp3", 4<<20, "Audio"), entry(7, "ozart moz.mp3", 5<<20, "Audio"))
	// A file offered with as many tags as an entry may carry.
	tagged := entry(8, "rock tagged.mp3", 2<<20, "Audio")
	for len(tagged.Tags) < ed2k.MaxTagsPerFile {
		tagged.Tags = append(tagged.Tags, ed2k.UintTag(byte(0x40+len(tagged.Tags)), 1))
	}
	offer(5, 4662, tagged)
	for i := 0; i < 2*MaxSearchResults; i++ {
		e := entry(byte(10+i), fmt.Sprintf("common rock take%d.mp3", i), uint32(i)<<20, "Audio")
		offer(ed2k.ClientID(4+i%3), 4662, e)
	}
}

// signaturePassSeeds pairs names of fuzzSearchFiles with a word each
// carries every byte pair of but does not contain, and the search that
// takes the name as a candidate for that word.
var signaturePassSeeds = []struct {
	name, word string
	expr       *ed2k.SearchExpr
}{
	{"liv ive.mp3", "live", ed2k.And(ed2k.Keyword("ive"), ed2k.Keyword("live"))},
	{"ozart moz.mp3", "mozart", ed2k.And(ed2k.Keyword("ozart"), ed2k.Keyword("Mozart"))},
}

func asciiExpr(e *ed2k.SearchExpr) bool {
	if e == nil {
		return true
	}
	for i := 0; i < len(e.Word); i++ {
		if e.Word[i] >= 0x80 {
			return false
		}
	}
	return asciiExpr(e.Left) && asciiExpr(e.Right)
}

// FuzzSearchMatchesReference decodes the fuzz bytes as a message and,
// when they are a search, requires a 1- and an 8-shard server to answer
// it exactly as the naive reference does, with an answer the decoder
// accepts. Each server answers through one Answers reused across the
// inputs, as a daemon session answers, so an answer that kept a piece of
// the one before it fails here. Words with non-ASCII bytes are skipped: the index folds case
// by Unicode, the protocol evaluator by ASCII, and the two are only
// claimed equal on ASCII.
func FuzzSearchMatchesReference(f *testing.F) {
	ref, servers, offerAll := newRefAndServers(1, 8)
	fuzzSearchFiles(offerAll)
	bufs := make([]Answers, len(servers))
	for _, c := range signaturePassSeeds {
		if nameSig(c.word)&^nameSig(c.name) != 0 || strings.Contains(c.name, c.word) {
			f.Fatalf("%q does not pass %q's signature without containing it", c.name, c.word)
		}
		f.Add(ed2k.Encode(&ed2k.SearchReq{Expr: c.expr}))
	}
	avail := &ed2k.SearchExpr{Kind: ed2k.KindMetaNum, Meta: ed2k.MetaNameAvail, NumOp: ed2k.NumericMin, Value: 2}
	for _, e := range []*ed2k.SearchExpr{
		ed2k.Keyword("tagged"),
		ed2k.Keyword("MOZART"),
		ed2k.Keyword("absentword"),
		ed2k.Keyword("common"),
		ed2k.And(ed2k.Keyword("mozart"), ed2k.TypeIs("audio")),
		ed2k.And(ed2k.Keyword("mozart"), ed2k.SizeAtLeast(100<<20)),
		ed2k.And(ed2k.And(ed2k.Keyword("rock"), ed2k.Keyword("mp3")), ed2k.SizeAtMost(8<<20)),
		ed2k.AndNot(ed2k.Keyword("mozart"), ed2k.Keyword("requiem")),
		ed2k.AndNot(ed2k.Keyword("live"), ed2k.Keyword("alive")),
		ed2k.Or(ed2k.Keyword("requiem"), ed2k.Keyword("symphony")),
		ed2k.Or(ed2k.Keyword("nope"), ed2k.SizeAtLeast(1)),
		ed2k.And(ed2k.Keyword("liv"), ed2k.Or(ed2k.Keyword("mp3"), ed2k.Keyword("avi"))),
		ed2k.And(ed2k.Keyword("mozart"), avail),
	} {
		f.Add(ed2k.Encode(&ed2k.SearchReq{Expr: e}))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, err := ed2k.Decode(raw)
		if err != nil {
			return
		}
		req, ok := msg.(*ed2k.SearchReq)
		if !ok || !asciiExpr(req.Expr) {
			return
		}
		if _, err := ed2k.Decode(ed2k.Encode(sameAsReference(t, ref, servers, bufs, req.Expr))); err != nil {
			t.Fatalf("%s: the answer does not decode: %v", req.Expr, err)
		}
	})
}

// FuzzSignatureIsNecessary holds the signature to what it promises: it
// turns away only candidates the full test would. For any bytes, a word
// a name contains has no signature bit the name lacks; and for random
// trees over a seeded catalog, every posting a tree matches carries the
// tree's required signature.
func FuzzSignatureIsNecessary(f *testing.F) {
	s := New("t", "d")
	searchCatalog(3, 400, func(from ed2k.ClientID, port uint16, files ...ed2k.FileEntry) {
		s.Handle(0, from, port, &ed2k.OfferFiles{Client: from, Port: port, Files: files})
	})
	var postings []posting
	for _, sh := range s.shards {
		for _, lst := range sh.keywords {
			postings = append(postings, lst...)
		}
	}
	f.Add("mozart requiem live.mp3", uint(8), uint(15), "ozar", uint64(1))
	f.Add("liv ive.mp3", uint(0), uint(3), "live", uint64(2))
	f.Add("caf\xc3\xa9 \xff\xfe\x00", uint(3), uint(9), "\xc3\xa9", uint64(3))
	f.Fuzz(func(t *testing.T, name string, i, j uint, word string, seed uint64) {
		lo, hi := min(i, j, uint(len(name))), min(max(i, j), uint(len(name)))
		for _, w := range []string{name[lo:hi], word} {
			if strings.Contains(name, w) && nameSig(w)&^nameSig(name) != 0 {
				t.Fatalf("%q contains %q, but its signature %#x lacks bits of %#x", name, w, nameSig(name), nameSig(w))
			}
		}
		r := randx.New(seed, 31)
		for q := 0; q < 8; q++ {
			expr := lowerExpr(randExpr(r, 3, false), new([]ed2k.SearchExpr))
			need := requiredSig(expr)
			for _, p := range postings {
				if need&^p.sig != 0 && evalExpr(expr, nil, p.f, p.f.live.Load()) {
					t.Fatalf("%s matches %q, whose signature %#x lacks bits of the required %#x", expr, p.f.nameLower(), p.sig, need)
				}
			}
		}
	})
}

// TestSearchAnswersDecode offers what the decoder accepts at its limits
// and requires every answer the index gives to be one its receivers
// decode: a file offered with MaxTagsPerFile tags (the sources tag would
// make one too many), and twelve files whose tags fill most of what an
// offer may carry (a full answer would exceed MaxTCPFrame).
func TestSearchAnswersDecode(t *testing.T) {
	long := strings.Repeat("x", ed2k.MaxStringLen)
	cases := []struct {
		name  string
		files func(n int) ed2k.FileEntry
		batch int
	}{
		{"tags", func(n int) ed2k.FileEntry {
			e := entry(byte(n), "mozart requiem.mp3", 5<<20, "Audio")
			for len(e.Tags) < ed2k.MaxTagsPerFile {
				e.Tags = append(e.Tags, ed2k.UintTag(byte(0x40+len(e.Tags)), 1))
			}
			return e
		}, 1},
		{"bytes", func(n int) ed2k.FileEntry {
			e := entry(byte(n), "mozart "+long[len("mozart "):], 5<<20, "Audio")
			e.Tags = e.Tags[:1]
			for k := 0; k < 30; k++ {
				e.Tags = append(e.Tags, ed2k.StringTag(byte(0x40+k), long))
			}
			return e
		}, 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New("t", "d")
			for n := 0; n < MaxSearchResults; n += c.batch {
				var files []ed2k.FileEntry
				for k := n; k < n+c.batch; k++ {
					files = append(files, c.files(k+1))
				}
				s.Handle(0, 1, 4662, decodesAsSent(t, offer(1, files...)))
			}
			res := s.Handle(0, 7, 7, &ed2k.SearchReq{Expr: ed2k.Keyword("mozart")})[0].(*ed2k.SearchRes)
			if len(res.Results) != MaxSearchResults {
				t.Fatalf("search found %d files, want %d", len(res.Results), MaxSearchResults)
			}
			got := decodesAsSent(t, res).(*ed2k.SearchRes)
			for _, e := range got.Results {
				if name, _ := e.Name(); !strings.HasPrefix(name, "mozart ") {
					t.Fatalf("a result lost its name: %q", name)
				}
			}
		})
	}
}

// decodesAsSent fails t unless m decodes both as a datagram and as a TCP
// frame, and returns what the frame decodes to.
func decodesAsSent(t *testing.T, m ed2k.Message) ed2k.Message {
	t.Helper()
	if _, err := ed2k.Decode(ed2k.Encode(m)); err != nil {
		t.Fatalf("%T: %v", m, err)
	}
	got, err := ed2k.NewStreamReader(bytes.NewReader(ed2k.FrameTCP(m))).Next()
	if err != nil {
		t.Fatalf("%T as a TCP frame: %v", m, err)
	}
	return got
}
